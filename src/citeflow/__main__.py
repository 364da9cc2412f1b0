import gc
import sys

from .cli import main

gc.freeze()  # collections, the one at exit too, skip the imports' objects
sys.exit(main())
