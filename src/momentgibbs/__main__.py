import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads; see README "Command line"

from .cli import run  # noqa: E402

if __name__ == "__main__":
    run()
