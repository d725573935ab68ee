from __future__ import annotations

import importlib
import json
import math
import pytest

from nearcentral import (
    InconsistencyError,
    Partition,
    VerificationError,
    dimension,
    enumerate_marked_partitions,
    enumerate_partitions,
    marked_class_size,
    marked_content,
)
from nearcentral.cli import main, run


def _invoke(capsys, argv: list[str]) -> tuple[int, object, str]:
    code = run(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_genchar_default_method(capsys) -> None:
    code, doc, _ = _invoke(
        capsys,
        ["genchar", "--n", "3", "--mu", "2,1", "--j", "2", "--lambda", "2,1", "--i", "2"],
    )
    assert code == 0
    assert doc == {"value": "1/2", "method": "auto"}


def test_genchar_document_is_value_and_method(capsys) -> None:
    # the benchmark compares the whole document, so it holds exactly these
    # two keys, and "method" echoes the request
    base = ["genchar", "--n", "4", "--mu", "3,1", "--j", "1", "--lambda", "2,1,1", "--i", "2"]
    for method in ("auto", "table", "strahov", "oracle"):
        code, doc, _ = _invoke(capsys, base + ["--method", method])
        assert code == 0
        assert set(doc) == {"value", "method"}
        assert doc["method"] == method


def test_genchar_all_methods_agree(capsys) -> None:
    for lam, i, expected in (("2,1", "2", "1/2"), ("1,1,1", "1", "1")):
        base = ["genchar", "--n", "3", "--mu", "2,1", "--j", "2", "--lambda", lam]
        for method in ("auto", "table", "strahov", "oracle"):
            code, doc, _ = _invoke(capsys, base + ["--i", i, "--method", method])
            assert code == 0
            assert doc["value"] == expected
            assert doc["method"] == method


def test_starfact_count(capsys) -> None:
    code, doc, _ = _invoke(
        capsys, ["starfact", "count", "--lambda", "2,1", "--i", "2", "--r", "3"]
    )
    assert code == 0
    assert doc == {"count": "3"}


def test_starfact_class_and_cycles(capsys) -> None:
    code, doc, _ = _invoke(
        capsys, ["starfact", "class", "--lambda", "2,1", "--r", "3"]
    )
    assert code == 0 and doc == {"count": "8"}
    code, doc, _ = _invoke(
        capsys, ["starfact", "cycles", "--n", "3", "--k", "3", "--r", "2"]
    )
    assert code == 0 and doc == {"count": "2"}


def test_starfact_closed(capsys) -> None:
    for case, expected in (
        ("full-cycle", "1"),
        ("fix-point-mark1", "2"),
        ("transposed-mark", "3"),
    ):
        r = "2" if case == "full-cycle" else "3"
        code, doc, _ = _invoke(
            capsys, ["starfact", "closed", "--case", case, "--n", "3", "--r", r]
        )
        assert code == 0
        assert doc == {"count": expected}


def test_partitions_listing(capsys) -> None:
    code, doc, _ = _invoke(capsys, ["partitions", "--n", "3"])
    assert code == 0
    assert doc == {"n": 3, "partitions": ["3", "2,1", "1,1,1"]}
    code, doc, _ = _invoke(capsys, ["partitions", "--n", "3", "--marked"])
    assert code == 0
    assert doc == {
        "n": 3,
        "marked_partitions": ["3@3", "2,1@2", "2,1@1", "1,1,1@1"],
    }


def test_tableaux_listing(capsys) -> None:
    code, doc, _ = _invoke(capsys, ["tableaux", "--shape", "2,1"])
    assert code == 0
    assert doc["count"] == 2
    code, doc, _ = _invoke(capsys, ["tableaux", "--shape", "2,1", "--mark", "2"])
    assert code == 0
    assert doc["count"] == 1


def test_marked_listing_enumerates_only_the_marked_tableaux(capsys, monkeypatch) -> None:
    # 7,770 of the 220,779 tableaux of (35,2,1,1) end in 39 on the row of
    # length 2: they are listed from the tableaux of (35,1,1,1) alone
    tableaux = importlib.import_module("nearcentral.tableaux")
    enumerate_syt, listed = tableaux.enumerate_syt, []

    def spy(lam):
        listed.append(lam.parts)
        return enumerate_syt(lam)

    monkeypatch.setattr(tableaux, "enumerate_syt", spy)
    code, doc, _ = _invoke(capsys, ["tableaux", "--shape", "35,2,1,1", "--mark", "2"])
    assert code == 0
    assert doc["count"] == len(doc["tableaux"]) == 7770
    assert listed == [(35, 1, 1, 1)]


def test_tableaux_of_a_long_row(capsys) -> None:
    # one tableau, but more cells than Python's default recursion limit
    code, doc, _ = _invoke(capsys, ["tableaux", "--shape", "1200"])
    assert code == 0
    assert doc == {"shape": "1200", "count": 1, "tableaux": [[list(range(1, 1201))]]}


def test_chartable_json_and_csv(capsys) -> None:
    code, doc, _ = _invoke(capsys, ["chartable", "--n", "3"])
    assert code == 0
    assert doc["table"] == [
        ["1", "1", "1"],
        ["-1", "0", "2"],
        ["1", "-1", "1"],
    ]
    code = run(["chartable", "--n", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line for line in out.splitlines() if line]
    assert len(rows) == 4  # header + one row per shape
    assert rows[1].split(",")[0] == "3"


def test_connection(capsys) -> None:
    code, doc, _ = _invoke(
        capsys,
        [
            "connection", "--n", "3",
            "--lambda", "2,1", "--i", "2",
            "--mu", "2,1", "--j", "2",
            "--nu", "1,1,1", "--k", "1",
        ],
    )
    assert code == 0
    assert doc == {"value": "2"}


def test_oracle_verify(capsys) -> None:
    code, doc, _ = _invoke(capsys, ["oracle", "verify", "--max-n", "3"])
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["max_n"] == 3
    assert doc["checks"] > 0


def test_oracle_verify_mismatch_exits_70(capsys, monkeypatch) -> None:
    # a failed identity in the suite is a library defect, not bad input
    def mismatch(max_n: int) -> list[str]:
        raise VerificationError("sum over j", 1, 2)

    monkeypatch.setattr("nearcentral.cli.run_verify", mismatch)
    code, doc, err = _invoke(capsys, ["oracle", "verify", "--max-n", "3"])
    assert code == 70
    assert doc == {"status": "mismatch", "check": "sum over j", "lhs": "1", "rhs": "2"}
    assert "verification mismatch in sum over j" in err


def test_oracle_verify_reports_a_broken_identity(capsys, monkeypatch) -> None:
    # one identity of the real suite broken, as in the oracle's own test
    monkeypatch.setattr(
        "nearcentral.oracle.marked_content", lambda lam, i: marked_content(lam, i) + 1
    )
    code, doc, err = _invoke(capsys, ["oracle", "verify", "--max-n", "3"])
    assert code == 70
    assert doc["status"] == "mismatch"
    assert doc["check"] == "marked idempotents diagonalize J_n @ n=2"
    assert "verification mismatch in marked idempotents diagonalize J_n @ n=2" in err
    assert doc["lhs"] != doc["rhs"]


def test_oracle_verify_guard(capsys, monkeypatch) -> None:
    # n = 9 is refused before any n is verified; n = 8 gets through to the
    # suite, which fails here on purpose
    monkeypatch.setattr("nearcentral.oracle.enumerate_partitions", _refuse)
    code, doc, _ = _invoke(capsys, ["oracle", "verify", "--max-n", "9"])
    assert code == 2
    assert doc["status"] == "error"
    assert "the 362880 permutations of S_n at n=9" in doc["error"]
    assert "at n=9; the limit is n <= 8" in doc["error"]
    with pytest.raises(AssertionError):
        run(["oracle", "verify", "--max-n", "8"])
    capsys.readouterr()


def test_usage_errors_exit_64(capsys) -> None:
    assert run(["nonsense"]) == 64
    capsys.readouterr()
    assert run(["genchar", "--n", "3"]) == 64
    capsys.readouterr()


def test_domain_error_exits_1(capsys) -> None:
    code, doc, err = _invoke(
        capsys,
        ["genchar", "--n", "3", "--mu", "2,1", "--j", "3", "--lambda", "2,1", "--i", "2"],
    )
    assert code == 1
    assert doc["status"] == "error"
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ["genchar", "--n", "4", "--mu", "3,1", "--j", "2", "--lambda", "4", "--i", "4"],
        ["genchar", "--n", "4", "--mu", "4", "--j", "4", "--lambda", "3,1", "--i", "2"],
        ["connection", "--n", "4", "--lambda", "3,1", "--i", "2",
         "--mu", "4", "--j", "4", "--nu", "4", "--k", "4"],
        ["starfact", "count", "--lambda", "3,1", "--i", "2", "--r", "3"],
        ["tableaux", "--shape", "3,1", "--mark", "2"],
    ],
    ids=["genchar superscript", "genchar subscript", "connection", "starfact count",
         "tableaux"],
)
def test_bad_mark_exits_1(capsys, argv) -> None:
    code, doc, err = _invoke(capsys, argv)
    assert code == 1
    assert doc == {"status": "error", "error": "mark 2 is not a part of 3,1"}
    assert err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["genchar", "--n", "4", "--mu", "2,1", "--j", "2", "--lambda", "4", "--i", "4"],
         "--mu '2,1' is not a partition of 4"),
        (["partitions", "--n", "-1"], "n must be at least 0, got -1"),
        (["chartable", "--n", "0"], "n must be at least 1, got 0"),
    ],
    ids=["shape of another n", "partitions of -1", "chartable of 0"],
)
def test_refused_sizes_exit_1(capsys, argv, error) -> None:
    code, doc, err = _invoke(capsys, argv)
    assert code == 1
    assert doc == {"status": "error", "error": error}
    assert err


@pytest.mark.parametrize("n, code", [("3", 0), ("-1", 1)])
def test_main_exits_with_the_code_run_returns(capsys, monkeypatch, n, code) -> None:
    monkeypatch.setattr("sys.argv", ["nearcentral", "partitions", "--n", n])
    with pytest.raises(SystemExit) as exited:
        main()
    assert exited.value.code == code
    capsys.readouterr()


def test_guard_exceeded_exits_2(capsys) -> None:
    code, doc, _ = _invoke(
        capsys,
        [
            "genchar", "--n", "12",
            "--mu", "6,3,3", "--j", "3",
            "--lambda", "6,3,3", "--i", "6",
            "--method", "strahov",
        ],
    )
    assert code == 2
    assert doc["status"] == "error"


def test_genchar_guard_exceeded_exits_2(capsys, monkeypatch) -> None:
    # a class without a closed form: n = 27 is refused before any rim pass,
    # n = 26 gets through to the rule, which fails here on purpose
    genchar_module = importlib.import_module("nearcentral.genchar")
    monkeypatch.setattr(genchar_module, "_rule_value", _refuse)
    genchar_module.genchar.cache_clear()
    argv = ["genchar", "--n", "27", "--mu", "9,7,4,3,2,1,1", "--j", "4",
            "--lambda", "9,7,4,3,2,1,1", "--i", "4"]
    code, doc, _ = _invoke(capsys, argv)
    assert code == 2
    assert doc["status"] == "error"
    assert "rim pass from 9,7,4,3,2,1,1@4 over some of the 1475 shapes" in doc["error"]
    assert "the limit is n <= 26" in doc["error"]
    with pytest.raises(AssertionError):
        run(["genchar", "--n", "26", "--mu", "9,7,4,3,2,1", "--j", "4",
             "--lambda", "9,7,4,3,2,1", "--i", "4"])
    capsys.readouterr()


def test_closed_form_genchar_guard(capsys) -> None:
    # a class with a closed form: n = 1000 is answered, n = 1001 is refused
    def argv(n: int, method: str) -> list[str]:
        return ["genchar", "--n", str(n), "--mu", f"{n - 1},1", "--j", "1",
                "--lambda", str(n), "--i", str(n), "--method", method]

    for method in ("auto", "table"):
        code, doc, _ = _invoke(capsys, argv(1000, method))
        assert code == 0
        assert doc["value"] == "-1/999"
        code, doc, _ = _invoke(capsys, argv(1001, method))
        assert code == 2
        assert doc["status"] == "error"
        assert "closed-form gamma at n=1001" in doc["error"]
        assert "the limit is n <= 1000" in doc["error"]


def test_connection_column_guard(capsys, monkeypatch) -> None:
    # a class without a closed form: n = 31 is refused before any column
    # value, n = 30 gets through to the lattice pass, which fails here on
    # purpose
    genchar_module = importlib.import_module("nearcentral.genchar")
    monkeypatch.setattr(genchar_module, "_lattice_pass", _refuse)
    genchar_module._column.cache_clear()

    def argv(n: int) -> list[str]:
        general = ",".join(["3", "2"] + ["1"] * (n - 5))
        return ["connection", "--n", str(n), "--lambda", str(n), "--i", str(n),
                "--mu", general, "--j", "2", "--nu", str(n), "--k", str(n)]

    code, doc, _ = _invoke(capsys, argv(31))
    assert code == 2
    assert doc["status"] == "error"
    assert "gamma column at n=31 holds one value for each of the 28629 marked shapes" in doc["error"]
    assert "the limit is n <= 30" in doc["error"]
    with pytest.raises(AssertionError):
        run(argv(30))
    capsys.readouterr()


def test_starfact_count_of_a_general_class_at_n13(capsys) -> None:
    # (3,2,1^8)@2: four stars for the 3-cycle off n, one for the 2-cycle
    # through n; a fixed point touched by a star costs two more, so the
    # length-5 factorizations are those of (1 2 3)(4 n) at any n: six
    argv = ["starfact", "count", "--lambda", "3,2" + ",1" * 8, "--i", "2", "--r", "5"]
    code, doc, _ = _invoke(capsys, argv)
    assert code == 0
    assert doc == {"count": "6"}


def test_chartable_guard_exceeded_exits_2(capsys, monkeypatch) -> None:
    def refuse(n: int) -> None:
        raise AssertionError(f"enumerated the partitions of {n}")

    # refused before any partition of 40 is listed
    monkeypatch.setattr("nearcentral.cli.enumerate_partitions", refuse)
    monkeypatch.setattr("nearcentral.characters.enumerate_partitions", refuse)
    code, doc, _ = _invoke(capsys, ["chartable", "--n", "40"])
    assert code == 2
    assert doc["status"] == "error"
    assert "S_40 has 1394126244 entries, p(n)^2; the limit is n <= 18" in doc["error"]


def _refuse(*args) -> None:
    raise AssertionError(f"enumerated {args}")


@pytest.mark.parametrize(
    "n, r, message",
    [
        ("1001", "90", "n = 1001, r = 90 sums O(n) powers c^r"),
        ("40", "1001", "n = 40, r = 1001 sums O(n) powers c^r"),
        ("10000000000", "10000000000", "each of up to 340000000000 bits"),
    ],
)
def test_starfact_closed_guard_exceeded_exits_2(capsys, monkeypatch, n, r, message) -> None:
    # refused before any weight or power is computed
    monkeypatch.setattr("nearcentral.starcount._closed_spectrum", _refuse)
    for case in ("full-cycle", "fix-point-mark1", "transposed-mark"):
        code, doc, _ = _invoke(
            capsys, ["starfact", "closed", "--case", case, "--n", n, "--r", r]
        )
        assert code == 2
        assert doc["status"] == "error"
        assert message in doc["error"]
        assert "the limit is n and r <= 1000" in doc["error"]


def test_starfact_closed_guard_boundary(capsys, monkeypatch) -> None:
    monkeypatch.setattr("nearcentral.starcount.STAR_CLOSED_MAX", 5)
    argv = ["starfact", "closed", "--case", "transposed-mark"]
    assert run(argv + ["--n", "5", "--r", "5"]) == 0
    assert run(argv + ["--n", "6", "--r", "5"]) == 2
    assert run(argv + ["--n", "5", "--r", "6"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["starfact", "count", "--lambda", "2,1", "--i", "2", "--r", "1001"],
            "n = 3, r = 1001 sums powers c^r with |c| <= 2, each of up to 2002 bits",
        ),
        (
            ["starfact", "class", "--lambda", "3,2,1", "--r", "100000"],
            "n = 6, r = 100000 sums powers c^r with |c| <= 5, each of up to 300000 bits",
        ),
        (
            ["starfact", "cycles", "--n", "18", "--k", "3", "--r", "1001"],
            "n = 18, r = 1001 sums powers c^r with |c| <= 17, each of up to 5005 bits",
        ),
    ],
)
def test_starfact_length_guard_exceeded_exits_2(capsys, monkeypatch, argv, message) -> None:
    # refused before any spectrum or power is computed
    for name in (
        "_star_spectrum", "_descending_parts", "_chi_column", "_class_weights", "_marked_shapes"
    ):
        monkeypatch.setattr(f"nearcentral.starcount.{name}", _refuse)
    code, doc, _ = _invoke(capsys, argv)
    assert code == 2
    assert doc["status"] == "error"
    assert message in doc["error"]
    assert "the limit is r <= 1000" in doc["error"]


def test_starfact_length_guard_boundary(capsys, monkeypatch) -> None:
    monkeypatch.setattr("nearcentral.starcount.STAR_CLOSED_MAX", 5)
    for argv in (
        ["starfact", "count", "--lambda", "2,1", "--i", "2"],
        ["starfact", "class", "--lambda", "2,1"],
        ["starfact", "cycles", "--n", "3", "--k", "2"],
    ):
        assert run(argv + ["--r", "5"]) == 0
        assert run(argv + ["--r", "6"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    [
        ["starfact", "count", "--lambda", "{n}", "--i", "{n}", "--r", "5"],
        ["starfact", "class", "--lambda", "{n}", "--r", "5"],
        ["starfact", "cycles", "--n", "{n}", "--k", "1", "--r", "5"],
    ],
)
def test_starfact_size_guard(capsys, monkeypatch, command) -> None:
    # n = 31 is refused before any shape is listed; n = 30 gets through to
    # the computation, which fails here on purpose
    for name in (
        "_star_spectrum", "_descending_parts", "_chi_column", "_class_weights", "_marked_shapes"
    ):
        monkeypatch.setattr(f"nearcentral.starcount.{name}", _refuse)
    code, doc, _ = _invoke(capsys, [arg.format(n=31) for arg in command])
    assert code == 2
    assert doc["status"] == "error"
    assert "star count at n = 31 sums over the 6842 shapes of n" in doc["error"]
    assert "the limit is n <= 30" in doc["error"]
    with pytest.raises(AssertionError):
        run([arg.format(n=30) for arg in command])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partitions", "--n", "55"], "n = 55 has 451276 partitions"),
        (["partitions", "--n", "55", "--marked"], "n = 55 has 2533589 marked partitions"),
        (["partitions", "--n", "1000001"], "n = 1000001 has more than 10^31 partitions"),
        (
            ["tableaux", "--shape", "5,4,3,2"],
            "shape 5,4,3,2 has 48048 standard tableaux",
        ),
        (
            ["tableaux", "--shape", "5,4,3,2", "--mark", "3"],
            "shape 5,4,3,2 marked at 3 has 12870 standard tableaux",
        ),
    ],
)
def test_listing_guard_exceeded_exits_2(capsys, monkeypatch, argv, message) -> None:
    # refused before anything is enumerated
    for name in (
        "enumerate_partitions",
        "enumerate_marked_partitions",
        "enumerate_syt",
        "enumerate_syt_marked",
    ):
        monkeypatch.setattr(f"nearcentral.cli.{name}", _refuse)
    code, doc, _ = _invoke(capsys, argv)
    assert code == 2
    assert doc["status"] == "error"
    assert message in doc["error"]
    assert doc["error"].endswith(" <= 10000")


def test_huge_shape_is_refused_before_its_hook_lengths(capsys, monkeypatch) -> None:
    # the hook-length count of a million cells would need 1000000!
    monkeypatch.setattr("nearcentral.cli.dimension", _refuse)
    code, doc, _ = _invoke(capsys, ["tableaux", "--shape", "1000000"])
    assert code == 2
    assert doc["error"] == "shape 1000000 has 1000000 cells; the limit is cells <= 10000"


def test_marked_listing_is_counted_as_listed(capsys) -> None:
    # (mu, j) of n is a partition of n - j plus the part j: 11732 of them at
    # n = 27, where p(27) = 3010
    code, doc, _ = _invoke(capsys, ["partitions", "--n", "26", "--marked"])
    assert code == 0
    assert len(doc["marked_partitions"]) == 9296
    code, doc, _ = _invoke(capsys, ["partitions", "--n", "27", "--marked"])
    assert code == 2
    assert doc["error"] == (
        "n = 27 has 11732 marked partitions; the limit is marked partitions <= 10000"
    )


def test_a_count_past_the_printable_digits_is_refused_in_one_document(capsys) -> None:
    # the staircase of 9870 cells has more standard tableaux than str prints
    staircase = ",".join(map(str, range(140, 0, -1)))
    code, doc, err = _invoke(capsys, ["tableaux", "--shape", staircase])
    assert code == 2
    assert doc["status"] == "error"
    refused = " has more than 10^17377 standard tableaux; the limit is tableaux <= 10000"
    assert doc["error"] == f"shape {staircase}{refused}"
    assert err


def test_listing_guard_boundary(capsys, monkeypatch) -> None:
    monkeypatch.setattr("nearcentral.cli.LIST_MAX", 5)
    assert run(["partitions", "--n", "4"]) == 0  # p(4) = 5
    assert run(["partitions", "--n", "4", "--marked"]) == 2  # p(0) + .. + p(3) = 7
    assert run(["partitions", "--n", "5"]) == 2  # p(5) = 7
    assert run(["tableaux", "--shape", "3,2"]) == 0  # 5 tableaux
    assert run(["tableaux", "--shape", "3,1,1"]) == 2  # 6 tableaux
    assert run(["tableaux", "--shape", "3,1,1", "--mark", "1"]) == 0  # 3 of them
    assert run(["tableaux", "--shape", "6"]) == 2  # 1 tableau, but 6 cells
    capsys.readouterr()


def _wrong_column(lam, i):
    # eigenvalue 1 on the trivial idempotent Gamma^{(n),n} and 0 elsewhere:
    # the class (2,1)@2 at r = 2 then counts 1 * 1 * 2^2 / (2 * 3!) = 1/3
    return (1,) + (0,) * (len(enumerate_marked_partitions(lam.n)) - 1)


def _wrong_chi_column(parts):
    # chi 1 on the row (n) and 0 elsewhere: the class (3) at r = 1 then
    # counts |C_(3)| 2^1 / 3! = 2/3
    return (1,) + (0,) * (len(enumerate_partitions(sum(parts))) - 1)


@pytest.mark.parametrize(
    "module, name, wrong, argv",
    [
        pytest.param(
            "nearcentral.starcount", "_column", _wrong_column,
            ["starfact", "count", "--lambda", "2,1", "--i", "2", "--r", "2"],
            id="nearcentral.starcount-argv0",
        ),
        pytest.param(
            "nearcentral.genchar", "_column", _wrong_column,
            [
                "connection", "--n", "3",
                "--lambda", "2,1", "--i", "2",
                "--mu", "2,1", "--j", "2",
                "--nu", "1,1,1", "--k", "1",
            ],
            id="nearcentral.genchar-argv1",
        ),
        pytest.param(
            "nearcentral.starcount", "_chi_column", _wrong_chi_column,
            ["starfact", "class", "--lambda", "3", "--r", "1"],
            id="nearcentral.starcount-argv2",
        ),
    ],
)
def test_internal_inconsistency_exits_70(capsys, monkeypatch, module, name, wrong, argv) -> None:
    # a wrong eigenvalue or chi makes a count fractional: a library defect,
    # not bad input; star counts and product coefficients read the integer
    # eigenvalue column of each class, class counts read chi from its column
    spectrum = importlib.import_module("nearcentral.starcount")._star_spectrum
    # a spectrum cached by an earlier test would hide the patched column,
    # and the one built from it must not outlive this test
    spectrum.cache_clear()
    monkeypatch.setattr(importlib.import_module(module), name, wrong)
    try:
        code, doc, err = _invoke(capsys, argv)
    finally:
        spectrum.cache_clear()
    assert code == 70
    assert doc["status"] == "error"
    assert "internal inconsistency" in err


def test_an_eigenvalue_off_the_integers_exits_70(capsys, monkeypatch) -> None:
    # one end weight of the lattice pass off by one: omega of (3,2)@2 is
    # |C| = 8 times the weight over a multiple of scale = lcm(1..4) = 12, so
    # the entry leaves the integers, and the column, the star count and the
    # product coefficient that read it refuse
    genchar_module = importlib.import_module("nearcentral.genchar")
    spectrum = importlib.import_module("nearcentral.starcount")._star_spectrum
    lattice_pass = genchar_module._lattice_pass

    def off_by_one(lam, i):
        ends, den = lattice_pass(lam, i)
        lasts = next(iter(ends.values()))
        lasts[next(iter(lasts))] += 1
        return ends, den

    monkeypatch.setattr(genchar_module, "_lattice_pass", off_by_one)
    # neither cache may answer from a right pass, nor keep a wrong one
    genchar_module._column.cache_clear()
    spectrum.cache_clear()
    try:
        with pytest.raises(InconsistencyError, match=r"^eigenvalue of K_3,2@2 on Gamma\^\S+ is not"):
            genchar_module._column(Partition((3, 2)), 2)
        for argv in (
            ["starfact", "count", "--lambda", "3,2", "--i", "2", "--r", "2"],
            ["connection", "--n", "5", "--lambda", "3,2", "--i", "2",
             "--mu", "3,2", "--j", "2", "--nu", "5", "--k", "5"],
        ):
            code, doc, err = _invoke(capsys, argv)
            assert code == 70, argv
            assert doc["status"] == "error"
            assert "internal inconsistency" in err
            assert "eigenvalue of K_" in doc["error"]
    finally:
        genchar_module._column.cache_clear()
        spectrum.cache_clear()


def test_a_fractional_marked_class_size_exits_70(capsys, monkeypatch) -> None:
    # a symmetry factor above n! cannot divide (n-1)! i m_i; the Table 1
    # route divides by the class size of (3)@3
    monkeypatch.setattr(
        "nearcentral.partitions._cycle_type_symmetry", lambda lam: math.factorial(lam.n) + 1
    )
    with pytest.raises(InconsistencyError, match=r"^marked class size of \(3, 3\) is not"):
        marked_class_size(Partition((3,)), 3)
    code, doc, err = _invoke(
        capsys,
        ["genchar", "--n", "3", "--mu", "2,1", "--j", "2", "--lambda", "3", "--i", "3",
         "--method", "table"],
    )
    assert code == 70
    assert doc["status"] == "error"
    assert "internal inconsistency" in err


def test_a_hook_product_that_does_not_divide_exits_70(capsys, monkeypatch) -> None:
    # each column one cell longer: the hooks of (2, 1) multiply to 16, not 3
    conjugate = importlib.import_module("nearcentral.tableaux")._conjugate_lengths
    monkeypatch.setattr(
        "nearcentral.tableaux._conjugate_lengths", lambda lam: [c + 1 for c in conjugate(lam)]
    )
    # a dimension cached by an earlier test would hide the patched helper,
    # and one built from it must not outlive this test
    dimension.cache_clear()
    try:
        with pytest.raises(InconsistencyError, match=r"^hook length product of 2,1 does not"):
            dimension(Partition((2, 1)))
        code, doc, err = _invoke(capsys, ["tableaux", "--shape", "2,1"])
    finally:
        dimension.cache_clear()
    assert code == 70
    assert doc["status"] == "error"
    assert "internal inconsistency" in err


def test_output_is_deterministic(capsys) -> None:
    argv = ["genchar", "--n", "4", "--mu", "3,1", "--j", "3", "--lambda", "2,2", "--i", "2"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second
