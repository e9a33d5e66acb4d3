"""``python -m rdpc``: the ``rdpc`` command line."""
from rdpc.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
