"""`python -m clockring`: the command line, run from a checkout or an install."""

import sys

from .cli import main

sys.exit(main())
