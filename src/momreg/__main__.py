"""``python -m momreg <mode> ...`` runs the command line of ``momreg.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
