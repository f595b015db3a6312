"""``python -m ofbic``: the same entry point as the ``ofbic`` command."""

import sys

from .cli import main

sys.exit(main())
