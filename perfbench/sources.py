"""Seeded MiniC mutatees for the benchmark workloads.

A seed changes the data the programs compute on, never their shape:
loop bounds and function counts are fixed, so every seed does the same
amount of work to within a few percent.
"""

from __future__ import annotations

import random

#: the bench-scale matmul cell of the paper's 4.3 table (12x12, 20 calls)
MATMUL_N = 12
MATMUL_REPS = 20

#: functions in the wide binary (plus ``main``)
WIDE_FUNCS = 200


def matmul_source(seed: int, n: int = MATMUL_N,
                  reps: int = MATMUL_REPS) -> str:
    """The paper's 4.1 application program -- an n x n double matmul
    called *reps* times between two clock samples -- with the matrix
    initialisers drawn from *seed*."""
    rng = random.Random(seed)
    div = rng.choice((3.0, 5.0, 7.0, 9.0, 11.0))
    scale = rng.choice((0.25, 0.5, 0.75, 1.5))
    return f"""
double a[{n}][{n}];
double b[{n}][{n}];
double c[{n}][{n}];

void init(void) {{
    for (long i = 0; i < {n}; i = i + 1) {{
        for (long j = 0; j < {n}; j = j + 1) {{
            a[i][j] = (double)(i + j) / {div};
            b[i][j] = (double)(i - j) * {scale};
            c[i][j] = 0.0;
        }}
    }}
}}

void multiply(void) {{
    for (long i = 0; i < {n}; i = i + 1) {{
        for (long j = 0; j < {n}; j = j + 1) {{
            double sum = 0.0;
            for (long k = 0; k < {n}; k = k + 1) {{
                sum = sum + a[i][k] * b[k][j];
            }}
            c[i][j] = sum;
        }}
    }}
}}

long main(void) {{
    init();
    long t0 = clock_ns();
    for (long r = 0; r < {reps}; r = r + 1) {{
        multiply();
    }}
    long t1 = clock_ns();
    print_long(t1 - t0);
    long chk = (long)(c[1][2] * 1000.0);
    print_long(chk);
    return 0;
}}
"""


def wide_source(seed: int, n: int = WIDE_FUNCS) -> str:
    """*n* small functions, each a four-step Collatz walk, all called
    once from ``main`` with seeded arguments."""
    rng = random.Random(seed)
    parts = []
    for i in range(n):
        parts.append(f"""
long work{i}(long x) {{
    long s = x;
    for (long j = 0; j < 4; j = j + 1) {{
        if (s % 2 == 0) {{ s = s / 2; }} else {{ s = s * 3 + 1; }}
    }}
    return s;
}}""")
    calls = " + ".join(f"work{i}({rng.randrange(1, 1000)})"
                       for i in range(n))
    parts.append(f"long main(void) {{ return ({calls}) % 256; }}")
    return "\n".join(parts)


def wide_functions(n: int = WIDE_FUNCS) -> list[str]:
    """The functions the wide workloads instrument: every ``work<i>``
    and ``main``."""
    return [f"work{i}" for i in range(n)] + ["main"]
