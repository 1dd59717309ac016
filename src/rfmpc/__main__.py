"""``python -m rfmpc``: the ``rfmpc`` command, also from an uninstalled checkout."""
from .cli import main

if __name__ == "__main__":
    main()
