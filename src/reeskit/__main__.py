"""``python -m reeskit``: the ``reeskit`` command."""

from .cli import main

raise SystemExit(main())
