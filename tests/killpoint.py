"""Runs ``orthoseg`` with a kill point armed, for ``test_kill.py``:

    python killpoint.py POINT K ARGV...

exits 137 at the K-th kill point of kind POINT ("replace" or "write"; K = 0
never kills), else with orthoseg's exit code after printing "kill points N"
to stderr. Kept apart from the test module so the child imports no pytest."""

import builtins
import os
import sys

from orthoseg import cli, data


def arm(point, kill_at):
    """Makes this process exit 137 at its ``kill_at``-th kill point of kind
    ``point`` ("replace" or "write"); returns the list holding the count of
    those calls so far."""
    calls = [0]

    def reached():
        calls[0] += 1
        return calls[0] == kill_at

    if point == "replace":
        replace = os.replace

        def replace_or_exit(*args, **kwargs):
            if reached():
                os._exit(137)
            return replace(*args, **kwargs)

        os.replace = replace_or_exit
    else:
        class Torn:
            """A file opened by ``replace_file``, whose kill-point write
            writes its first half, flushes and exits."""

            def __init__(self, f):
                self.f = f

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.f.__exit__(*exc)

            def write(self, payload):
                if reached():
                    view = memoryview(payload).cast("B")
                    self.f.write(view[:len(view) // 2])
                    self.f.flush()
                    os._exit(137)
                return self.f.write(payload)

        def open_torn(path, mode="r", *args, **kwargs):
            f = builtins.open(path, mode, *args, **kwargs)
            return Torn(f) if mode == "wb" else f  # "wb" only in replace_file

        data.open = open_torn  # shadows the builtin inside data.py alone
    return calls


if __name__ == "__main__":
    counter = arm(sys.argv[1], int(sys.argv[2]))
    code = cli.main(sys.argv[3:])
    print(f"kill points {counter[0]}", file=sys.stderr)
    sys.exit(code)
