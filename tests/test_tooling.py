"""Source-level checks on the package."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dppmle"


def test_no_assert_statements():
    # `python -O` strips asserts, so none may guard behaviour
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/dppmle: {found}"


def test_one_report_writer():
    # every command writes its files through experiments._write_report
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write_text"):
                calls.append(f"{path.name}:{node.lineno}")
    assert len(calls) == 1, f"write_text calls in src/dppmle: {calls}"


def test_one_csv_writer():
    # every report CSV is written through model.csv_text
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "csv.writer":
                calls.append(f"{path.name}:{node.lineno}")
    assert len(calls) == 1, f"csv.writer calls in src/dppmle: {calls}"


def test_one_fit_loop():
    # every fit runs through the lockstep batch: one `range(config.max_iters)`
    # loop, no per-restart fitter or fit chunking beside it, none of the
    # quasi-Newton state or the approximate-Wolfe endgame that the Newton
    # step replaced, and no fit gradient beside the padded inverses;
    # enumeration has one cap, minors.MAX_ENUM_N; every trace statistic
    # a_{J,k} comes from the one all-minors recursion, carried in jets,
    # not from padded matrix powers, and the matrix form from its reverse
    # sweep, not from weighted sums of the 2^n padded inverses; commands
    # return their report dicts, with no report classes beside them; the
    # minors, coordinates and block losses each have one copy, and so has
    # the likelihood Hessian (`test_one_likelihood_hessian`), with no
    # layout of its own in the fitter or the geometry
    # (`test_one_coordinate_layout`)
    loops, banned = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                    and ast.unparse(node.iter) == "range(config.max_iters)"):
                loops.append(f"{path.name}:{node.lineno}")
            names = {getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None)}
            for name in names & {"_fit_single", "_WOLFE_SLACK", "_matrix_from_theta", "h_inv",
                                 "_logdet_adjoint", "weighted_logdet_grad", "_fit_batch",
                                 "_FIT_CHUNK_MASKS", "MAX_SIGN_ENUM_N", "_stats_upto",
                                 "_weighted_inverse_sums", "_select", "_offdiag_rows_cols",
                                 "_split_by_blocks", "ScanReport", "RateReport",
                                 "_hessian_layout", "_gram_layout", "_strict_lower",
                                 "stack_to_coords", "_bordered_inverses",
                                 "LikelihoodDecrease", "trace_statistics",
                                 "TraceStatistics"}:
                banned.append(f"{name} at {path.name}:{node.lineno}")
    assert len(loops) == 1, f"fit loops in src/dppmle: {loops}"
    assert not banned, f"removed machinery in src/dppmle: {banned}"


def _defs(tree) -> list:
    """(name, node) of a module's functions and of its classes' methods,
    the latter named Class.method."""
    defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef)]
    return defs


def _calls(node, name: str) -> list:
    """The calls under `node` of a function or method of that name."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and ast.unparse(call.func).split(".")[-1] == name]


def _is_gram(node) -> bool:
    """A matrix product X^T @ Y whose operands share an array name, such
    as y.transpose(0, 2, 1) @ y or (t * p[:, None]).T @ t, or Y @ Y^T of
    one array, such as y @ y.transpose(0, 2, 1) or a @ a.T."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
        return False

    def transposed(side):
        """The array a transpose is taken of, or None."""
        func = side.func if isinstance(side, ast.Call) else side
        if isinstance(func, ast.Attribute) and func.attr in ("T", "transpose"):
            return func.value
        return None

    def names(tree):
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}

    left, right = transposed(node.left), transposed(node.right)
    if left is not None:
        return bool(names(left) & names(node.right))
    return right is not None and ast.dump(right) == ast.dump(node.left)


def test_one_likelihood_hessian():
    # the Newton step, hessian_matrix, min_curvature and asymptotic_covariance
    # read one Hessian: a Gram of the distinct padded-inverse entries is
    # formed in one function, geometry.likelihood_derivatives, and nowhere
    # else; the one other Gram is the Wishart draw a a^T / n of the random
    # kernels of verify-identities
    grams = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        grams += [f"{path.stem}.{name}" for name, fn in _defs(tree)
                  if any(_is_gram(node) for node in ast.walk(fn))]
    assert grams == ["experiments.random_kernel", "geometry.likelihood_derivatives"], \
        f"Gram products in src/dppmle: {grams}"


def test_one_coordinate_layout():
    # kernels._coordinate_layout is the one order of the symmetric
    # coordinates: no other module builds triangle or index grids, or the
    # dense basis matrices
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if (name in ("np.triu_indices", "np.tril_indices", "np.indices")
                    or name.split(".")[-1] == "symmetric_basis"):
                calls.append(f"{name} at {path.name}:{node.lineno}")
    assert not calls, f"coordinate layouts outside kernels.py: {calls}"


def test_one_chunk_budget():
    # `minors._CHUNK_FLOATS` is read only inside `minors._chunks`, so every
    # batched consumer sizes its chunks by the one budget
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_chunks"
                  and path.name == "minors.py" for node in ast.walk(fn)}
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == "_CHUNK_FLOATS"
                      or isinstance(node, ast.Attribute) and node.attr == "_CHUNK_FLOATS")
                  and not isinstance(node.ctx, ast.Store) and id(node) not in inside]
    assert not reads, f"_CHUNK_FLOATS read outside minors._chunks: {reads}"


def test_one_member_chunk_loop_a_pass():
    # a loop over member chunks (`minors._chunks`) holds no second one, and
    # the Newton step's derivative pass is a plain call on the members it
    # is given: no loop and no yield
    def chunk_loop(node):
        return (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                and ast.unparse(node.iter.func).split(".")[-1] == "_chunks")

    nested, derivatives = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in filter(chunk_loop, ast.walk(tree)):
            nested += [f"{path.name}:{node.lineno} holds {path.name}:{inner.lineno}"
                       for stmt in node.body + node.orelse for inner in ast.walk(stmt)
                       if chunk_loop(inner)]
        derivatives += [fn for cls in tree.body if isinstance(cls, ast.ClassDef)
                        and cls.name == "_Objective" for fn in cls.body
                        if isinstance(fn, ast.FunctionDef) and fn.name == "derivatives"]
    assert not nested, f"member-chunk loops inside member-chunk loops: {nested}"
    assert len(derivatives) == 1
    loops = [f"{type(node).__name__} at line {node.lineno}" for node in ast.walk(derivatives[0])
             if isinstance(node, (ast.For, ast.While, ast.Yield, ast.YieldFrom))]
    assert not loops, f"_Objective.derivatives loops or yields: {loops}"


def test_one_evaluation_a_step():
    # the fit loop evaluates only its starts: a step goes on from the
    # value and kernel that its line search accepted, so no accepted
    # kernel is evaluated twice
    tree = ast.parse((SRC / "estimation.py").read_text())
    lockstep = dict(_defs(tree))["_lockstep"]
    calls = [call.lineno for call in _calls(lockstep, "evaluate")]
    assert len(calls) == 1, f"evaluate calls in estimation._lockstep: lines {calls}"


def test_derivatives_read_the_kernels():
    # the objective's value pass leaves nothing for the derivative pass:
    # `_Objective.evaluate` returns one array, not a tuple, and the
    # search hands no evaluation point to `_line_search` or `_newton`
    defs = dict(_defs(ast.parse((SRC / "geometry.py").read_text())))
    returns = [node for node in ast.walk(defs["_Objective.evaluate"])
               if isinstance(node, ast.Return)]
    assert returns and not any(isinstance(node.value, ast.Tuple) for node in returns), \
        [ast.unparse(node) for node in returns]
    defs = dict(_defs(ast.parse((SRC / "estimation.py").read_text())))
    for name in ("_line_search", "_newton"):
        args = [arg.arg for arg in defs[name].args.args]
        assert "point" not in args, f"estimation.{name}{tuple(args)}"


def test_one_reverse_sweep_reader():
    # the reverse sweep of the Schur pass serves only the identity suite's
    # matrix form; the likelihood gradient is the fitter's derivative pass
    everywhere, callers = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        everywhere += len(_calls(tree, "_schur_adjoint"))
        callers += [f"{path.stem}.{name}" for name, fn in _defs(tree)
                    if _calls(fn, "_schur_adjoint")]
    assert callers == ["geometry.identity_residuals"] and everywhere == 1, \
        f"_schur_adjoint callers in src/dppmle: {callers}, {everywhere} calls"


def test_one_likelihood_module():
    # the objective's value, gradient, Gram and Hessians live in geometry:
    # `_Objective` is defined there and nowhere else, and
    # `likelihood_derivatives` returns its Hessians as arrays, with no
    # function nested in it to form them later
    defined, nested = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [path.name for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) and node.name == "_Objective"]
        for name, fn in _defs(tree):
            if name == "likelihood_derivatives":
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if node is not fn and isinstance(
                               node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert defined == ["geometry.py"], f"_Objective defined in: {defined}"
    assert not nested, f"functions nested in likelihood_derivatives: {nested}"


def test_imports_are_declared():
    # numpy is the one declared dependency: every import is relative,
    # numpy or the standard library (an undeclared import such as scipy
    # would also add to the time to import and set up a command)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{name} at {path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not found, f"undeclared imports in src/dppmle: {found}"
