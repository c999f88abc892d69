"""The examples of README.md, checked against the library.

The `$ fuchs-kit` lines of the CLI section run through cli.main in this
process; the JSON each prints and its exit code are compared with the
README.  The two examples in the prose after them, and the values commented
in the Library snippet, are checked with the library.
"""

import ast
import json
import re
import shlex
from pathlib import Path

from fuchskit import jsonio
from fuchskit.cli import main
from fuchskit.diffmod import base_change
from fuchskit.laurent import LaurentPoly
from fuchskit.linalg import Matrix, jordan_block
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PROSE = " ".join(README.split())


def fenced_blocks():
    """(info string, text) of every fenced block of README, in order."""
    blocks, info, lines = [], None, []
    for line in README.splitlines():
        if line.startswith("```"):
            if info is None:
                info, lines = line[3:].strip(), []
            else:
                blocks.append((info, "\n".join(lines)))
                info = None
        elif info is not None:
            lines.append(line)
    assert info is None, "unclosed fence in README.md"
    return blocks


def cli_examples():
    """(argv, printed text) of every `$ fuchs-kit` line of README."""
    examples = []
    for _, text in fenced_blocks():
        for chunk in re.split(r"^\$ ", text, flags=re.M)[1:]:
            command, _, printed = chunk.partition("\n")
            argv = shlex.split(command)
            assert argv[0] == "fuchs-kit"
            examples.append((argv[1:], printed.strip()))
    return examples


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def prose_input(command):
    """The JSON input that README's prose gives for `command`."""
    (doc,) = re.findall(rf"`{command}` of `(\{{.*?\}})`", PROSE)
    return doc


def is_indented(out):
    return out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_cli_blocks(capsys):
    examples = cli_examples()
    assert [argv[0] for argv, _ in examples] == ["exponents", "rm", "rm"]
    # "The last one exits with code 1"; the others succeed
    assert "The last one exits with code 1" in PROSE
    for k, (argv, printed) in enumerate(examples):
        code, out = run_cli(capsys, *argv)
        assert json.loads(out) == json.loads(printed), argv
        assert code == (1 if k == len(examples) - 1 else 0), argv
        assert ("error" in json.loads(out)) == (code == 1)


def test_mon_of_a_nilpotent_is_unipotent(capsys):
    doc = prose_input("mon")
    assert "`J(1, 2)`" in PROSE
    code, out = run_cli(capsys, "mon", "--json", doc)
    assert code == 0 and is_indented(out)
    v = jsonio.decode_sigmamodule(json.loads(out))
    assert v.monodromy == jordan_block(Cyclotomic.one(), 2)


def test_constant_form_of_the_shear(capsys):
    doc = prose_input("constant-form")
    m = jsonio.decode_diffmodule(json.loads(doc))
    t = LaurentPoly.t_power(1)
    assert m.matrix == Matrix([[LaurentPoly.zero(), t], [LaurentPoly.zero(), LaurentPoly.zero()]])
    code, out = run_cli(capsys, "constant-form", "--json", doc)
    assert code == 0 and is_indented(out)
    result = json.loads(out)
    gauge = jsonio.decode_matrix(result["gauge"], jsonio.decode_laurent)
    constant = jsonio.decode_matrix(result["constant"], jsonio.decode_cyclotomic)
    assert base_change(m, gauge).matrix == constant.map(LaurentPoly.from_scalar)


def test_library_snippet():
    (snippet,) = [text for info, text in fenced_blocks() if info == "python"]
    lines = snippet.splitlines()
    ns, assigned, printed = {}, {}, {}
    for stmt in ast.parse(snippet).body:
        comment = lines[stmt.lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
            printed[ast.unparse(stmt.value)] = value, comment
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
            if isinstance(stmt, ast.Assign):
                assigned[stmt.targets[0].id] = comment
    assert assigned["m"].startswith("N(3/2), connection matrix [3/2]")
    assert ns["m"].matrix == Matrix([[LaurentPoly.from_scalar(Rat(3, 2))]])
    assert assigned["v"].startswith("V_{-1}: monodromy [-1]")
    assert ns["v"].monodromy == Matrix([[Cyclotomic.from_rat(-1)]])
    assert list(printed) == ["exponents(m)", "rm(v) == rank_one(Rat(1, 2))", "ext_dim(rank_one(0), rank_one(1))"]
    # each comment opens with the value printed: {1/2}, True, 1
    for expr, (value, comment) in printed.items():
        assert comment.split()[0].rstrip(":") == str(value), expr
