"""Time the benchmark's set-up in a fresh process.

Set-up is what a new process pays before its first measured operation:
importing the package, building the problems and one warm-up
certification, which also pays the lazy BLAS/LAPACK start-up.  Prints the
seconds as the only line of output.

Usage: python3 perfbench/setup_probe.py
"""

import time

T0 = time.perf_counter()

import bootstrap  # noqa: E402


def main():
    bootstrap.pin_blas()
    sc = bootstrap.import_package(bootstrap.checkout_root())
    import workloads

    workloads.Runner(sc).warm_up()
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
