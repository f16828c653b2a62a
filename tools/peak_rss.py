"""Run one spiral-euler command and print its peak resident memory.

    python tools/peak_rss.py COMMAND --config PATH [--out DIR] [...]

The arguments go to ``python -m spiral_euler.cli`` in a child process.  The
launcher prints the command's exit code and its peak resident set size,
``ru_maxrss`` of ``RUSAGE_CHILDREN`` in MB, and exits 0 whatever the
command returned: the number is reported, not gated.  The command's stdout
is discarded and its stderr passes through.  The launcher imports only the
standard library, because a child's ``ru_maxrss`` starts from its parent's
high-water mark.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/peak_rss.py COMMAND --config PATH [...]", file=sys.stderr)
        return 1
    cmd = [sys.executable, "-m", "spiral_euler.cli", *argv]
    code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"{argv[0]}: exit {code}, peak RSS {peak_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
