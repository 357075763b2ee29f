"""`python -m kmink ...` runs the `kmink` command line."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
