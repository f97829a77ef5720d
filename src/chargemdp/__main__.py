"""``python -m chargemdp``: the command-line front-end."""

from .cli import main

if __name__ == "__main__":
    main()
