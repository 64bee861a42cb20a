"""`python -m porphyry`: the porphyry command line, as `porphyry` runs it."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
