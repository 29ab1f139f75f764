import os
import sys

from .cli import main

code = main()
try:
    sys.stdout.flush()
except BrokenPipeError:
    # stdout is closed: what is left goes to devnull, so the flush at exit passes
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 1
sys.exit(code)
