"""``python -m cliffeph COMMAND ...`` runs the command-line driver."""

from .plotcli import main

if __name__ == "__main__":
    main()
