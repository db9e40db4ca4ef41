"""``python -m cvteleport``: the ``cvteleport`` command line."""

from .cli import main

raise SystemExit(main())
