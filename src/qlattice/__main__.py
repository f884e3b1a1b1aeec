"""``python -m qlattice``: the command-line interface of qlattice.cli."""

import sys

from .cli import main

sys.exit(main())
