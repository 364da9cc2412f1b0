import gc
import sys

from .cli import main


def frozen_main() -> int:
    """`cli.main` after freezing what the imports left: collections, the
    one at exit too, skip those objects.  The `citeflow` command's entry."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(frozen_main())
