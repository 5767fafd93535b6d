"""Shared hypothesis strategies: random MiniC program generation."""

from __future__ import annotations

from hypothesis import strategies as st

_expr_leaf = st.sampled_from(["x", "y", "1", "2", "3", "7", "-1"])


@st.composite
def minic_expr(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(_expr_leaf)
    op = draw(st.sampled_from(["+", "-", "*", "%", "/"]))
    a = draw(minic_expr(depth=depth - 1))
    b = draw(minic_expr(depth=depth - 1))
    if op in ("%", "/"):
        b = draw(st.sampled_from(["3", "5", "7"]))
    return f"({a} {op} {b})"


@st.composite
def minic_statement(draw, depth, fn_index, hot=False):
    """A statement nested at most *depth* deep in function ``f<fn_index>``
    (which may call the functions before it).  With *hot*, a top-level
    statement (*depth* 2) may also be a loop of 40-100 iterations, past
    the trace JIT's hot threshold (32), whose body calls nothing, and
    calls stay at the top level, so no call repeats a hot loop more
    than a few times."""
    kinds = ["assign"]
    if depth > 0:
        kinds += ["if", "loop"]
        if fn_index > 0 and (not hot or depth == 2):
            kinds.append("call")
        if hot and depth == 2:
            kinds.append("hot")
    kind = draw(st.sampled_from(kinds))
    if kind == "assign":
        target = draw(st.sampled_from(["x", "y"]))
        return f"{target} = {draw(minic_expr())};"
    if kind == "if":
        cond = (f"{draw(minic_expr(depth=1))} "
                f"{draw(st.sampled_from(['<', '>', '==', '!=']))} "
                f"{draw(minic_expr(depth=1))}")
        then = draw(minic_statement(depth - 1, fn_index, hot))
        if draw(st.booleans()):
            other = draw(minic_statement(depth - 1, fn_index, hot))
            return f"if ({cond}) {{ {then} }} else {{ {other} }}"
        return f"if ({cond}) {{ {then} }}"
    if kind == "loop":
        n = draw(st.integers(1, 5))
        body = draw(minic_statement(depth - 1, fn_index, hot))
        var = draw(st.sampled_from(["i", "j"]))
        return (f"for (long {var} = 0; {var} < {n}; "
                f"{var} = {var} + 1) {{ {body} }}")
    if kind == "hot":
        n = draw(st.integers(40, 100))
        body = draw(minic_statement(depth - 1, 0))
        return f"for (long k = 0; k < {n}; k = k + 1) {{ {body} }}"
    callee = draw(st.integers(0, fn_index - 1))
    return f"y = y + f{callee}(x + {draw(st.integers(0, 3))});"


@st.composite
def minic_program(draw, hot=False):
    """One to three functions ``f<i>`` and a ``main`` that calls each
    once; *hot* lets their top-level statements be hot loops (see
    :func:`minic_statement`)."""
    n_funcs = draw(st.integers(1, 3))
    funcs = []
    for i in range(n_funcs):
        n_stmts = draw(st.integers(1, 3))
        stmts = " ".join(
            draw(minic_statement(2, i, hot)) for _ in range(n_stmts))
        funcs.append(f"""
long f{i}(long x) {{
    long y = x;
    {stmts}
    return y % 1000;
}}""")
    calls = " + ".join(
        f"f{i}({draw(st.integers(0, 9))})" for i in range(n_funcs))
    funcs.append(f"""
long main(void) {{
    long r = {calls};
    print_long(r);
    return r % 256;
}}""")
    return "\n".join(funcs)
