"""`python -m qchar2`: the `qchar2` command line (`qchar2.cli.main`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
