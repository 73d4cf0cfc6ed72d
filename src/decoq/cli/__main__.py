import sys

from . import main

sys.exit(main())
