"""``python -m dtough``: the command line of ``dtough.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
