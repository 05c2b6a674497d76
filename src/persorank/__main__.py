"""`python -m persorank`, the same entry point as the `persorank` command."""

from .cli import main

raise SystemExit(main())
