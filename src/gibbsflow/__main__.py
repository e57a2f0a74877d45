"""``python -m gibbsflow``: the command line of ``gibbsflow.cli``."""
from .cli import main

raise SystemExit(main())
