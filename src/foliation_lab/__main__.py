"""``python -m foliation_lab``: the command-line interface of ``cli``."""

from .cli import main

if __name__ == "__main__":
    main()
