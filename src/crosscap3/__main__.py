"""``python -m crosscap3``: the ``crosscap3`` command without installing the package."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
