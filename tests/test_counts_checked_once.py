"""The counts are checked a fixed number of times per command.

as_exponent_vector is the one check of the counts. Below it, the
moments report and the grid's per-axis factors take the checked vector,
so a command with more bins runs the check no more often. A check per
bin or per axis would make the command quadratic in the bin count.
"""

import random

import pytest

from simplexquad import cli, moments, quadrature, spherical

CHECKED = (moments, cli, quadrature, spherical)


def _checks_per_command(monkeypatch, tmp_path, capsys, argv, n):
    path = tmp_path / f"counts{n}.txt"
    rng = random.Random(n)
    path.write_text("\n".join(str(rng.randrange(10)) for _ in range(n)))
    calls = []
    check = moments.as_exponent_vector

    def counting(m):
        calls.append(1)
        return check(m)

    with monkeypatch.context() as patch:
        for module in CHECKED:
            patch.setattr(module, "as_exponent_vector", counting)
        assert cli.main([argv[0], "--counts-file", str(path), *argv[1:]]) == 0
    assert capsys.readouterr().err == ""
    return len(calls)


@pytest.mark.parametrize("argv", [
    ["moments"], ["moments", "--moment", "1,2"], ["integrate"],
    ["integrate", "--moment", "2"],
])
def test_the_count_of_checks_does_not_grow_with_the_bins(
    monkeypatch, tmp_path, capsys, argv
):
    few = _checks_per_command(monkeypatch, tmp_path, capsys, argv, 20)
    many = _checks_per_command(monkeypatch, tmp_path, capsys, argv, 200)
    assert 1 <= few == many
