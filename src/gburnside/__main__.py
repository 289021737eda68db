"""``python -m gburnside``: the command-line interface of ``gburnside.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
