"""``python -m fracham``: the same command line as the ``fracham`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
