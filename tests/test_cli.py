"""End-to-end command line tests through real subprocesses.

Every invocation goes through `python -m simplexquad` so the installed
entry point, argument parsing, report serialization and exit codes are
exercised exactly as a shell user sees them. Expected numbers are
exact closed forms (factorial arithmetic) or frozen regression values
captured from a verified run and protected by a coarse independent
bound in the same test.
"""

import json
import math
import re
import subprocess
import sys
import time

import pytest


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    env.pop("SIMPLEXQUAD_EVAL_BUDGET", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "simplexquad", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def report_of(result):
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    return json.loads(result.stdout)


class TestMomentsCommand:
    def test_small_posterior_report(self):
        report = report_of(run_cli("moments", "--counts", "2,0,1"))
        assert report["format_version"] == 1
        assert report["command"] == "moments"
        assert report["inputs"]["counts"] == [2.0, 0.0, 1.0]
        # (m_i + 1)/(N + n) with N + n = 6: exactly representable
        assert report["results"]["mean"] == [0.5, 1.0 / 6.0, 1.0 / 3.0]
        assert report["results"]["mean_sum"] == pytest.approx(1.0, abs=1e-15)
        assert report["results"]["variance"][0] == pytest.approx(1.0 / 28.0, rel=1e-14)
        assert report["diagnostics"]["evaluations"] == 0
        assert report["diagnostics"]["wall_time_s"] >= 0.0

    def test_default_knobs_are_printed_into_the_report(self):
        report = report_of(run_cli("moments", "--counts", "1,1"))
        assert report["inputs"]["nodes"] == 32
        assert report["inputs"]["tol"] == 1e-8
        assert report["inputs"]["eval_budget"] == 100_000_000

    def test_flat_two_bin_posterior(self):
        report = report_of(run_cli("moments", "--counts", "0,0"))
        assert report["results"]["mean"] == [0.5, 0.5]
        # Beta(1,1) marginals: variance 1/12, zero skew
        assert report["results"]["variance"][0] == pytest.approx(1 / 12, rel=1e-14)
        assert abs(report["results"]["skewness"][0]) < 1e-12

    def test_real_valued_counts(self):
        # (m_i + 1)/(N + n) = (1.5, 2.5)/4
        report = report_of(run_cli("moments", "--counts", "0.5,1.5"))
        assert report["results"]["mean"] == pytest.approx([0.375, 0.625])

    def test_moment_flag_with_repeated_index(self):
        report = report_of(run_cli("moments", "--counts", "2,0,1",
                                   "--moment", "1,1"))
        block = report["results"]["moment"]
        assert block["index"] == [1, 1]
        # E[p_1^2] = (3*4)/(6*7)
        assert block["value"] == pytest.approx(12.0 / 42.0, rel=1e-14)

    def test_plain_output_is_bare_numbers(self):
        result = run_cli("moments", "--counts", "2,0,1", "--plain")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        # mean, variance, std_dev, skewness for each of 3 bins
        assert len(lines) == 12
        assert [float(v) for v in lines[:3]] == [0.5, 1 / 6, 1 / 3]

    def test_plain_output_appends_the_moment(self):
        result = run_cli("moments", "--counts", "2,0,1", "--moment", "1",
                         "--plain")
        lines = result.stdout.splitlines()
        assert len(lines) == 13
        assert float(lines[-1]) == pytest.approx(0.5, rel=1e-14)

    # every subcommand reads its counts through the same path in main;
    # the moments cases keep their bare ids
    @pytest.mark.parametrize("command, bad", [
        pytest.param(command, bad,
                     id=bad if command == "moments" else f"{command}-{bad}")
        for command in ("moments", "integrate", "compare")
        for bad in ("2,,1", "a,b", "3", "1,nan,2", "1,-2")
    ])
    def test_malformed_counts_exit_2(self, command, bad):
        result = run_cli(command, "--counts", bad)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error" in result.stderr
        if bad == "3":
            assert "two bins" in result.stderr

    @pytest.mark.parametrize("args", [
        ("--counts", "1e20,1e-3", "--moment", "2,2"),
        ("--counts", "1e300,1e300"),
    ])
    def test_dominant_and_huge_counts_give_a_report(self, args):
        # a dominant count once broke std_dev (math domain error) and a
        # huge total overflowed the variance; report_of also requires
        # an empty stderr, so no overflow warning either
        result = run_cli("moments", *args)
        report = report_of(result)
        json.loads(result.stdout, parse_constant=_reject_constant)
        variances = report["results"]["variance"]
        assert all(0.0 < v < 1.0 for v in variances)
        assert variances[0] == variances[1]

    def test_bad_moment_index_exits_2(self):
        result = run_cli("moments", "--counts", "1,1", "--moment", "5")
        assert result.returncode == 2
        assert "outside" in result.stderr

    def test_counts_are_required(self):
        result = run_cli("moments")
        assert result.returncode == 2

    @pytest.mark.parametrize("command", ["moments", "integrate"])
    def test_leading_negative_count_after_a_space(self, command):
        # counts > -1 are valid, so "--counts -0.5,..." is a value, not
        # an option; both spellings must give the same report
        mask = re.compile(r'"wall_time_s": [^,\n]+')
        spaced = run_cli(command, "--counts", "-0.5,0.3,2")
        joined = run_cli(command, "--counts=-0.5,0.3,2")
        assert spaced.returncode == joined.returncode == 0, spaced.stderr
        assert mask.sub("<t>", spaced.stdout) == mask.sub("<t>", joined.stdout)
        assert report_of(spaced)["inputs"]["counts"] == [-0.5, 0.3, 2.0]

    @pytest.mark.parametrize("counts", ["1,1", "-0.5,0.3,2"])
    def test_leading_minus_prior_after_a_space(self, counts):
        # the grammar allows one leading minus, so "--prior -p1+1" is a
        # value, not an option, also after a spaced negative count
        mask = re.compile(r'"wall_time_s": [^,\n]+')
        prior = "-p1+1" if counts == "1,1" else "-p1+2"
        spaced = run_cli("integrate", "--counts", counts, "--prior", prior)
        joined = run_cli("integrate", f"--counts={counts}", f"--prior={prior}")
        assert spaced.returncode == joined.returncode == 0, spaced.stderr
        assert mask.sub("<t>", spaced.stdout) == mask.sub("<t>", joined.stdout)
        assert report_of(spaced)["inputs"]["prior"] == prior
        if counts == "1,1":
            # int p (1-p)^2 over [0, 1] = B(2, 3) = 1/12
            assert report_of(spaced)["results"]["value"] == pytest.approx(
                1 / 12, rel=1e-12
            )

    def test_abbreviated_prior_flag_keeps_a_leading_minus_value(self):
        # argparse accepts the unique prefix "--prio" for "--prior"
        mask = re.compile(r'"wall_time_s": [^,\n]+')
        spaced = run_cli("integrate", "--counts", "1,1", "--prio", "-p1+1")
        joined = run_cli("integrate", "--counts", "1,1", "--prior=-p1+1")
        assert spaced.returncode == joined.returncode == 0, spaced.stderr
        assert mask.sub("<t>", spaced.stdout) == mask.sub("<t>", joined.stdout)

    def test_ambiguous_abbreviation_with_a_minus_value_exits_2(self):
        # "--count" could be --counts or --counts-file
        result = run_cli("integrate", "--count", "-0.5,0.3")
        assert result.returncode == 2
        assert "ambiguous option" in result.stderr

    def test_counts_sources_are_mutually_exclusive(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("1\n2\n")
        result = run_cli("moments", "--counts", "1,2", "--counts-file", str(path))
        assert result.returncode == 2


class TestCountsFile:
    def test_file_with_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(
            "# survey bins\n"
            "2\n"
            "\n"
            "0   # an empty bin\n"
            "1\n"
        )
        report = report_of(run_cli("moments", "--counts-file", str(path)))
        assert report["inputs"]["counts"] == [2.0, 0.0, 1.0]
        assert report["results"]["mean"] == [0.5, 1.0 / 6.0, 1.0 / 3.0]

    def test_several_values_per_line(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("2 0\n1, 3\n")
        report = report_of(run_cli("moments", "--counts-file", str(path)))
        assert report["inputs"]["counts"] == [2.0, 0.0, 1.0, 3.0]

    @pytest.mark.parametrize("line", ["3,,4", "3,4,", ",3", "3, ,4"])
    def test_empty_value_beside_a_comma_exits_2(self, tmp_path, line):
        path = tmp_path / "counts.txt"
        path.write_text(f"1\n{line}\n")
        result = run_cli("moments", "--counts-file", str(path))
        assert result.returncode == 2
        assert "empty count" in result.stderr
        assert str(path) in result.stderr

    def test_missing_file_exits_2(self):
        result = run_cli("moments", "--counts-file", "/no/such/file.txt")
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_garbage_in_file_exits_2(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("2\nfive\n")
        result = run_cli("moments", "--counts-file", str(path))
        assert result.returncode == 2


class TestIntegrateCommand:
    def test_gauss_default_against_the_factorial_form(self):
        report = report_of(run_cli("integrate", "--counts", "1,1,1"))
        exact = float(6 / math.factorial(5)) / 6.0  # 1/120
        assert report["results"]["value"] == pytest.approx(exact, rel=1e-10)
        assert report["results"]["scheme"] == "gauss_grid"
        assert report["results"]["std_error"] == 0.0
        assert report["inputs"]["prior"] == "1"
        # the flat prior is no prior: one 1-D sum per angle
        assert report["diagnostics"]["evaluations"] == 2 * 32

    def test_two_bins_with_a_linear_prior(self):
        # counts (0,0) with prior p1 is the 1-D integral of p over [0,1]
        report = report_of(run_cli("integrate", "--counts", "0,0",
                                   "--prior", "p1"))
        assert report["results"]["value"] == pytest.approx(0.5, rel=1e-10)

    def test_prior_weighting_changes_the_value_consistently(self):
        # int prod p_i * p_1 equals the norm integral at counts (2,1,1)
        flat = report_of(run_cli("integrate", "--counts", "1,1,1"))
        tilted = report_of(run_cli("integrate", "--counts", "1,1,1",
                                   "--prior", "p1"))
        ratio = tilted["results"]["value"] / flat["results"]["value"]
        assert ratio == pytest.approx(2.0 / 6.0, rel=1e-9)

    def test_oracle_scheme(self):
        report = report_of(run_cli("integrate", "--counts", "1,1,1",
                                   "--scheme", "oracle", "--tol", "1e-9"))
        assert report["results"]["scheme"] == "nested_oracle"
        assert report["results"]["value"] == pytest.approx(1 / 120, rel=1e-8)

    def test_monte_carlo_frozen_regression_values(self):
        """Bit-level regression for the seeded Monte Carlo stream.

        The literals were captured from a verified run (the estimate
        sits within 0.5 standard errors of the exact 12/8! and the
        run-to-run reproducibility is checked independently below).
        """
        result = run_cli("integrate", "--counts", "1,2,3", "--scheme", "mc",
                         "--samples", "100000", "--seed", "7", "--plain")
        assert result.returncode == 0
        log_value, value, std_error = result.stdout.splitlines()
        assert log_value == "-8.116560438206708"
        assert value == "0.0002985537906431252"
        assert std_error == "2.1426159480959153e-06"
        # coarse independent bound: within 5 sigma of the exact value
        exact = 12.0 / math.factorial(8)
        assert abs(float(value) - exact) <= 5.0 * float(std_error)

    @pytest.mark.parametrize("counts, frozen", [
        ((1, 2, 3, 0, 2),
         ("-16.806310015802598", "5.024725010402836e-08",
          "7.237410830833372e-10")),
        # eight terms: the power and Jacobian row sums take numpy's
        # pairwise order, which a column-by-column sum would change
        ((1, 0, 2, 1, 0, 1, 2, 0),
         ("-23.85324354645767", "4.371877175467944e-11",
          "3.0770779437546524e-12")),
        # nine bins: eight Jacobian terms and nine power terms per point
        ((1, 0, 2, 1, 0, 1, 2, 0, 3),
         ("-33.13196088343804", "4.0829326275249006e-15",
          "1.3601365435852145e-15")),
    ])
    def test_monte_carlo_frozen_regression_values_at_more_bins(self, counts,
                                                               frozen):
        result = run_cli("integrate", "--counts", ",".join(map(str, counts)),
                         "--scheme", "mc", "--samples", "200000", "--seed",
                         "3", "--plain")
        assert result.returncode == 0
        assert tuple(result.stdout.splitlines()) == frozen
        _, value, std_error = frozen
        # exact prod m_i! / (N + n - 1)!, within 5 sigma
        exact = math.prod(map(math.factorial, counts)) / math.factorial(
            sum(counts) + len(counts) - 1)
        assert abs(float(value) - exact) <= 5.0 * float(std_error)

    @pytest.mark.parametrize("seed", [
        "18446744073709551616", "9223372036854775808", "-9223372036854775809",
    ])
    def test_monte_carlo_seed_outside_the_key_word_exits_2(self, seed):
        # 2**64 used to print exactly what --seed 0 prints
        result = run_cli("integrate", "--counts", "1,2", "--scheme", "mc",
                         "--samples", "5", "--seed", seed, "--plain")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "seed must lie in [-2**63, 2**63)" in result.stderr

    def test_a_400_digit_seed_or_node_count_is_not_converted_to_float(self):
        huge = "9" * 400
        seed = run_cli("integrate", "--counts", "1,2", "--scheme", "mc",
                       "--samples", "5", "--seed", huge, "--plain")
        assert seed.returncode == 2
        assert "seed must lie in [-2**63, 2**63)" in seed.stderr
        nodes = run_cli("integrate", "--counts", "1,2", "--nodes", huge)
        assert nodes.returncode == 3
        assert "over the budget" in nodes.stderr
        for result in (seed, nodes):
            assert result.stdout == ""
            assert "int too large" not in result.stderr

    def test_monte_carlo_seeds_at_the_ends_of_the_range_run(self):
        outputs = {
            run_cli("integrate", "--counts", "1,2", "--scheme", "mc",
                    "--samples", "5", "--seed", seed, "--plain").stdout
            for seed in ("-9223372036854775808", "9223372036854775807", "0")
        }
        assert len(outputs) == 3 and "" not in outputs

    def test_monte_carlo_is_reproducible_across_processes(self):
        args = ("integrate", "--counts", "1,2", "--scheme", "mc",
                "--samples", "20000", "--seed", "123")
        first = report_of(run_cli(*args))
        second = report_of(run_cli(*args))
        assert first["results"]["log_value"] == second["results"]["log_value"]
        assert first["results"]["std_error"] == second["results"]["std_error"]

    def test_moment_flag_reports_the_posterior_mean(self):
        report = report_of(run_cli("integrate", "--counts", "1,1,1",
                                   "--moment", "1"))
        block = report["results"]["moment"]
        assert block["value"] == pytest.approx(2.0 / 6.0, rel=1e-9)
        # two integrals ran, each two axis sums
        assert report["diagnostics"]["evaluations"] == 2 * (2 * 32)

    def test_moment_flag_with_a_pair_of_indices(self):
        report = report_of(run_cli("integrate", "--counts", "1,1,1",
                                   "--moment", "1,2"))
        # E[p_1 p_2] = I(2,2,1)/I(1,1,1) = 2/21
        assert report["results"]["moment"]["value"] == pytest.approx(
            2.0 / 21.0, rel=1e-9
        )

    def test_prior_weighted_moment_uses_the_same_prior_twice(self):
        # with prior p1: E-like ratio I(m + e1 + e1-prior)/I(m + e1-prior)
        # equals the plain mean at counts (2,1,1)
        report = report_of(run_cli("integrate", "--counts", "1,1,1",
                                   "--prior", "p1", "--moment", "1"))
        assert report["results"]["moment"]["value"] == pytest.approx(
            3.0 / 7.0, rel=1e-9
        )

    def test_plain_output_line_order(self):
        result = run_cli("integrate", "--counts", "1,1,1", "--moment", "2",
                         "--plain")
        lines = result.stdout.splitlines()
        assert len(lines) == 4
        assert float(lines[0]) == pytest.approx(math.log(1 / 120), rel=1e-9)
        assert float(lines[1]) == pytest.approx(1 / 120, rel=1e-9)
        assert float(lines[2]) == 0.0
        assert float(lines[3]) == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_syntax_error_in_prior_exits_2_with_column(self):
        result = run_cli("integrate", "--counts", "1,1", "--prior", "2 *** p1")
        assert result.returncode == 2
        assert "column 4" in result.stderr

    def test_prior_referencing_missing_bin_exits_2(self):
        result = run_cli("integrate", "--counts", "1,1", "--prior", "p5")
        assert result.returncode == 2
        assert "p5" in result.stderr

    def test_negative_prior_exits_3(self):
        result = run_cli("integrate", "--counts", "1,1", "--prior", "0 - p1")
        assert result.returncode == 3
        assert "numerical failure" in result.stderr

    def test_negative_prior_on_the_head_points_exits_3(self):
        # at four bins the prior sees only the (p1, rest) head points
        result = run_cli("integrate", "--counts", "1,2,0,3", "--prior", "0 - p1")
        assert result.returncode == 3
        assert "numerical failure" in result.stderr

    def test_the_first_block_with_a_fault_names_it(self):
        # the log fails for p1 > 0.9, the power for p1 < 0.05; C order
        # starts at p1 near 1, so the first block of 8192 points holds
        # only the log's fault, though the first 16,384-point chunk
        # holds both, and one call that holds both reports the power
        result = run_cli("integrate", "--counts", "1,1,1", "--nodes", "128",
                         "--prior", "log(0.9-p1)*(p1-0.05)^0.5+0*p3")
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == "numerical failure: log of a non-positive value\n"

    def test_negative_constant_prior_exits_3(self):
        # a prior that reads no bin is evaluated once, and still checked
        result = run_cli("integrate", "--counts", "1,2,0,3", "--prior", "0 - 1")
        assert result.returncode == 3
        assert "numerical failure" in result.stderr

    def test_constant_prior_scales_the_flat_value(self):
        flat = report_of(run_cli("integrate", "--counts", "1,2,0,3"))
        doubled = report_of(run_cli("integrate", "--counts", "1,2,0,3",
                                    "--prior", "2"))
        assert doubled["results"]["log_value"] == pytest.approx(
            flat["results"]["log_value"] + math.log(2.0), rel=1e-15, abs=0
        )
        assert doubled["diagnostics"]["evaluations"] == 1 + 3 * 32

    def test_eight_bins_with_a_two_bin_prior(self):
        # the full 32^7 grid is over the default budget; the prior reads
        # p1 and p2, so two tensor axes and five 1-D sums suffice
        result = run_cli("integrate", "--counts", "0,0,0,1,8,7,10,5",
                         "--prior", "exp(-2*p1)*(1+p2^2)")
        report = report_of(result)
        assert report["diagnostics"]["evaluations"] == 32 ** 2 + 5 * 32
        assert report["results"]["log_value"] == pytest.approx(
            -63.99531592592385, rel=1e-13
        )

    def test_a_prior_on_every_bin_is_frozen(self):
        # the full 32^4 tensor with the power term in the measure; frozen
        # from a grid that allocated each block's points afresh. The
        # prior lies in [e^-4, e^-0.8], since sum p_i^2 is in [1/5, 1].
        report = report_of(run_cli(
            "integrate", "--counts", "3,1,4,1,5",
            "--prior", "exp(-4*(p1^2+p2^2+p3^2+p4^2+p5^2))",
        ))
        log_value = report["results"]["log_value"]
        assert log_value == -27.719439624797552
        assert report["diagnostics"]["evaluations"] == 32 ** 4
        log_norm = sum(math.lgamma(c + 1) for c in (3, 1, 4, 1, 5)) - math.lgamma(19)
        assert log_norm - 4.0 < log_value < log_norm - 0.8

    def test_division_by_zero_in_prior_exits_3(self):
        result = run_cli("integrate", "--counts", "1,1", "--prior", "1/0")
        assert result.returncode == 3

    @pytest.mark.parametrize("counts, exponents", [
        ("1e308,1", "inf and 3.0"), ("1,1e308", "3.0 and inf"),
    ])
    def test_an_overflowing_kernel_exponent_exits_3(self, counts, exponents):
        # 2(m_1 + 1) - 1 or 2 S_1 - 1 is past the doubles, though the
        # log of the integral is finite (about -1418.4 for 1e308,1):
        # a numerical failure, with no numpy warning and no null value
        result = run_cli("integrate", "--counts", counts)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"numerical failure: kernel exponents {exponents} of bin 1 are "
            "not finite\n"
        )

    def test_unknown_scheme_is_rejected_by_argparse(self):
        result = run_cli("integrate", "--counts", "1,1", "--scheme", "simpson")
        assert result.returncode == 2


# integrate --scheme oracle reports, frozen from a verified run that
# evaluated the prior one point at a time; wall_time_s is masked
_EXP_PRIOR = "exp(-2*p1)*(1+p2^2)"
_FROZEN_ORACLE_REPORTS = [
    (("--counts", "1,1,1,1"), {
        "format_version": 1, "command": "integrate",
        "inputs": {"counts": [1.0, 1.0, 1.0, 1.0], "nodes": 32, "tol": 1e-10,
                   "eval_budget": 100000000, "prior": _EXP_PRIOR,
                   "scheme": "nested_oracle", "samples": 100000, "seed": 0,
                   "moment": None},
        "results": {"log_value": -8.899104719303047,
                    "value": 0.000136511087531224, "std_error": 0.0,
                    "scheme": "nested_oracle"},
        "diagnostics": {"evaluations": 10845, "wall_time_s": None},
    }),
    (("--counts", "2,1,1", "--moment", "1"), {
        "format_version": 1, "command": "integrate",
        "inputs": {"counts": [2.0, 1.0, 1.0], "nodes": 32, "tol": 1e-10,
                   "eval_budget": 100000000, "prior": _EXP_PRIOR,
                   "scheme": "nested_oracle", "samples": 100000, "seed": 0,
                   "moment": [1]},
        "results": {"log_value": -6.563692105407424,
                    "value": 0.0014106677496172964, "std_error": 0.0,
                    "scheme": "nested_oracle",
                    "moment": {"index": [1], "value": 0.36107479696318534,
                               "log_numerator": -7.582362253714514}},
        "diagnostics": {"evaluations": 1440, "wall_time_s": None},
    }),
]


@pytest.mark.parametrize("args, expected", _FROZEN_ORACLE_REPORTS,
                         ids=["1,1,1,1", "2,1,1 --moment 1"])
def test_oracle_reports_with_a_prior_are_frozen(args, expected):
    report = report_of(run_cli("integrate", *args, "--scheme", "oracle",
                               "--prior", _EXP_PRIOR, "--tol", "1e-10"))
    assert report["diagnostics"]["wall_time_s"] >= 0.0
    report["diagnostics"]["wall_time_s"] = None
    assert report == expected


class TestEvalBudgetEnvironment:
    def test_budget_exceeded_exits_3(self):
        # a prior that reads p3 couples both angles: 32^2 points
        result = run_cli("integrate", "--counts", "1,1,1", "--prior", "p3",
                         env_extra={"SIMPLEXQUAD_EVAL_BUDGET": "100"})
        assert result.returncode == 3
        assert "budget" in result.stderr
        assert "2 tensor axes" in result.stderr

    def test_flat_prior_fits_the_budget_a_full_grid_exceeds(self):
        report = report_of(run_cli(
            "integrate", "--counts", "1,1,1",
            env_extra={"SIMPLEXQUAD_EVAL_BUDGET": "100"},
        ))
        assert report["diagnostics"]["evaluations"] == 2 * 32
        assert report["results"]["value"] == pytest.approx(1 / 120, rel=1e-10)

    def test_budget_env_is_recorded_in_the_report(self):
        report = report_of(run_cli(
            "integrate", "--counts", "1,1,1",
            env_extra={"SIMPLEXQUAD_EVAL_BUDGET": "200000"},
        ))
        assert report["inputs"]["eval_budget"] == 200_000

    def test_malformed_budget_exits_2(self):
        # inf is a number but not a usable budget: malformed input too
        for raw in ("lots", "inf"):
            result = run_cli("integrate", "--counts", "1,1,1",
                             env_extra={"SIMPLEXQUAD_EVAL_BUDGET": raw})
            assert result.returncode == 2
            assert "SIMPLEXQUAD_EVAL_BUDGET" in result.stderr


class TestCompareCommand:
    def test_all_routes_agree_for_unit_counts(self):
        report = report_of(run_cli("compare", "--counts", "1,1,1",
                                   "--tol", "1e-9"))
        results = report["results"]
        assert results["within_tolerance"] is True
        assert results["max_relative_deviation"] <= 1e-9
        assert results["log_oracle"] is not None
        assert results["oracle_note"] is None
        assert results["grid_note"] is None
        assert set(results["deviations"]) == {
            "exact_vs_separable", "exact_vs_grid", "exact_vs_oracle",
            "separable_vs_grid", "separable_vs_oracle", "grid_vs_oracle",
        }
        assert results["log_exact"] == pytest.approx(math.log(1 / 120), rel=1e-12)

    @pytest.mark.parametrize("counts", ["1,2,3", "2,0.5,1,3"])
    def test_separable_route_is_integrate_with_the_default_prior(self, counts):
        # both are the gauss_grid core with no prior: the same bits and
        # (n-1) k evaluations
        integrate = report_of(run_cli("integrate", "--counts", counts,
                                      "--nodes", "16"))
        compare = run_cli("compare", "--counts", counts, "--nodes", "16")
        assert compare.returncode in (0, 4), compare.stderr
        separable = json.loads(compare.stdout)["results"]["log_separable"]
        assert integrate["results"]["log_value"] == separable
        n = len(counts.split(","))
        assert integrate["diagnostics"]["evaluations"] == (n - 1) * 16

    def test_report_is_byte_stable_up_to_wall_time(self):
        args = ("compare", "--counts", "1,1,1", "--tol", "1e-9")
        mask = re.compile(r'"wall_time_s": [^,\n]+')
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0 and second.returncode == 0
        assert mask.sub("<t>", first.stdout) == mask.sub("<t>", second.stdout)
        assert mask.search(first.stdout) is not None

    def test_six_bins_skip_the_oracle_but_still_pass(self):
        report = report_of(run_cli("compare", "--counts", "1,1,1,1,1,1",
                                   "--nodes", "16"))
        results = report["results"]
        assert results["log_oracle"] is None
        assert "skipped" in results["oracle_note"]
        assert "n <= 5" in results["oracle_note"]
        assert results["within_tolerance"] is True
        assert "exact_vs_oracle" not in results["deviations"]

    def test_seven_bins_skip_the_plain_grid_but_still_report(self):
        # the plain grid's 32^6 points exceed the budget; the exact and
        # separable routes still run and are compared
        result = run_cli("compare", "--counts", "1,1,1,1,1,1,1")
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        report = json.loads(result.stdout, parse_constant=_reject_constant)
        assert report["results"] == {
            "log_exact": -22.55216385312342,
            "log_separable": -22.552163853123417,
            "log_grid": None,
            "grid_note": "skipped: gauss_grid with 32 nodes on 6 tensor "
                         "axes of 6 needs 1073741824 evaluations, over the "
                         "budget of 100000000",
            "log_oracle": None,
            "oracle_note": "skipped: the nested oracle is limited to n <= 5, "
                           "got n=7",
            "deviations": {"exact_vs_separable": 3.552713678800501e-15},
            "max_relative_deviation": 3.552713678800501e-15,
            "within_tolerance": True,
        }
        # the separable route's 6 axes of 32 nodes
        assert report["diagnostics"]["evaluations"] == 192

    def test_five_bins_still_run_the_oracle(self):
        report = report_of(run_cli("compare", "--counts", "1,0,2,0,1",
                                   "--nodes", "16"))
        assert report["results"]["log_oracle"] is not None

    def test_tolerance_breach_exits_4_with_the_report(self):
        result = run_cli("compare", "--counts", "8,8,8", "--nodes", "3",
                         "--tol", "1e-12")
        assert result.returncode == 4
        report = json.loads(result.stdout)
        assert report["results"]["within_tolerance"] is False
        assert report["results"]["max_relative_deviation"] > 1e-12

    def test_evaluations_count_an_oracle_that_gave_up(self):
        # the oracle exhausts this budget; its spent evaluations still
        # count, next to the 3 * 64 separable and 64^3 grid points
        limit = 2_000_000
        report = report_of(run_cli(
            "compare", "--counts", "0.5,2,1.5,3", "--nodes", "64",
            env_extra={"SIMPLEXQUAD_EVAL_BUDGET": str(limit)},
        ))
        assert "budget" in report["results"]["oracle_note"]
        oracle = report["diagnostics"]["evaluations"] - 3 * 64 - 64 ** 3
        # the oracle spends its evaluations 15 at a time
        assert limit - 15 < oracle <= limit
        # frozen: the oracle spent 1,999,995, the last whole pass that fit
        assert report["diagnostics"]["evaluations"] == 2_262_331

    def test_an_oracle_that_underflows_is_skipped(self):
        # the integral is exp(-961.4), zero in the oracle's linear
        # doubles; the log-domain routes still hold it, and the 32-node
        # separable route misses it by ~30%, so the exit code is 4
        result = run_cli("compare", "--counts", "400,300,200")
        assert result.returncode == 4, result.stderr
        assert result.stderr == ""
        report = json.loads(result.stdout, parse_constant=_reject_constant)
        results = report["results"]
        assert results["log_oracle"] is None
        assert results["oracle_note"].startswith("skipped: ")
        assert "underflow" in results["oracle_note"]
        assert "exact_vs_oracle" not in results["deviations"]
        assert results["log_exact"] == pytest.approx(-961.4451, abs=1e-3)
        assert 0.2 < results["max_relative_deviation"] < 0.4
        # 2 separable axes and 32^2 grid points, plus the oracle's spend
        assert report["diagnostics"]["evaluations"] == 2 * 32 + 32 ** 2 + 240

    @pytest.mark.parametrize("args, log_grid", [
        (("--counts", "3,3,3,3,3"), -30.381086841059215),
        # the budget stops the oracle early; the grid's 64^3 points fit
        (("--counts", "0.5,2,1.5,3", "--nodes", "64"), -12.45560529044984),
    ], ids=["3,3,3,3,3", "0.5,2,1.5,3 --nodes 64"])
    def test_the_plain_grid_is_frozen(self, args, log_grid):
        # the full tensor with the power term per point; frozen from a
        # grid that allocated each block's points afresh and took the
        # power term of 2^18 points in one pass, the 64-node value from
        # a grid whose reduction takes each 8192-point block
        report = report_of(run_cli(
            "compare", *args, env_extra={"SIMPLEXQUAD_EVAL_BUDGET": "2000000"}
        ))
        results = report["results"]
        assert results["log_grid"] == log_grid
        assert abs(results["log_grid"] - results["log_exact"]) <= 1e-13

    def test_an_oversized_axis_rule_exits_3_at_once(self):
        # 1e8 evaluations of the one axis fit the budget, but the rule's
        # O(k^2) build would effectively never end
        started = time.monotonic()
        result = run_cli("compare", "--counts", "2,2", "--nodes", "100000000")
        assert time.monotonic() - started < 20.0
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numerical failure: the 100000000-node axis rule needs "
            "5000000000000000 recurrence steps, over the limit of 100000000\n"
        )

    def test_plain_output_is_the_single_deviation_number(self):
        result = run_cli("compare", "--counts", "1,1,1", "--plain")
        lines = result.stdout.splitlines()
        assert len(lines) == 1
        assert 0.0 <= float(lines[0]) <= 1e-9


@pytest.mark.parametrize("command", ["integrate", "compare"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_tol_must_be_positive_and_finite(command, tol):
    result = run_cli(command, "--counts", "1,1", "--tol", tol)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--tol" in result.stderr


_INTEGRATE_USAGE = (
    "usage: simplexquad integrate [-h]\n"
    "                             (--counts COUNTS | --counts-file COUNTS_FILE)\n"
    "                             [--plain] [--prior PRIOR]\n"
    "                             [--scheme {gauss,mc,oracle}] [--nodes NODES]\n"
    "                             [--samples SAMPLES] [--seed SEED] [--tol TOL]\n"
    "                             [--moment MOMENT]\n"
)


# The exit code and the whole stderr of each malformed call, frozen as
# the command line printed them; "{path}" stands for the counts file
@pytest.mark.parametrize("args, code, stderr", [
    (("moments", "--counts", "1,1", "--moment", "5"), 2,
     "error: --moment index 5 is outside 1..2\n"),
    (("moments", "--counts", "1,1", "--moment", "0"), 2,
     "error: --moment index 0 is outside 1..2\n"),
    (("moments", "--counts", "1,1", "--moment", "1.5"), 2,
     "error: --moment expects comma-separated bin indices, got '1.5'\n"),
    (("moments", "--counts", "1,1", "--moment", ""), 2,
     "error: --moment expects comma-separated bin indices, got ''\n"),
    (("integrate", "--counts", "1,1", "--tol", "0"), 2,
     _INTEGRATE_USAGE + "simplexquad integrate: error: argument --tol: "
     "must be a positive finite number, got '0'\n"),
    (("integrate", "--counts", "1,1", "--tol", "nan"), 2,
     _INTEGRATE_USAGE + "simplexquad integrate: error: argument --tol: "
     "must be a positive finite number, got 'nan'\n"),
    (("moments", "--counts", "1,,2"), 2,
     "error: counts must be comma-separated numbers, got '1,,2'\n"),
    (("moments", "--counts", "a,2"), 2,
     "error: counts must be comma-separated numbers, got 'a,2'\n"),
    (("moments", "--counts", "1"), 2,
     "error: counts must form a 1-D vector with at least two bins\n"),
    (("moments", "--counts", "-1,2"), 2,
     "error: every count must be a finite value > -1\n"),
    (("moments", "--counts-file", "{path}"), 2,
     "error: empty count in {path}: '3,,4'\n"),
    (("moments", "--counts-file", "{path}.missing"), 2,
     "error: cannot read counts file: [Errno 2] No such file or directory: "
     "'{path}.missing'\n"),
    (("integrate", "--counts", "1,1", "--prior", "p1+"), 2,
     "error: bad --prior expression: unexpected end of expression; expected "
     "a number, p<i>, a function call or '(' (column 4)\n"),
    (("integrate", "--counts", "1,1", "--prior", "p3"), 2,
     "error: prior references p3 but there are only 2 bins\n"),
    (("integrate", "--counts", "1,1", "--nodes", "1"), 2,
     "error: nodes_per_axis must be at least 2, got 1\n"),
    (("integrate", "--counts", "1,1", "--scheme", "mc", "--samples", "0"), 2,
     "error: samples must be at least 1, got 0\n"),
    (("integrate", "--counts", "1,1", "--scheme", "mc", "--seed", "9" * 20), 2,
     "error: seed must lie in [-2**63, 2**63), got 99999999999999999999\n"),
    (("integrate", "--counts", "1,1,1,1,1,1,1", "--prior", "1+p7"), 3,
     "numerical failure: gauss_grid with 32 nodes on 6 tensor axes of 6 needs "
     "1073741824 evaluations, over the budget of 100000000\n"),
])
def test_malformed_input_exit_code_and_stderr(tmp_path, args, code, stderr):
    path = tmp_path / "counts.txt"
    path.write_text("1\n3,,4\n")
    # argparse wraps its usage text to the terminal width
    result = run_cli(*(a.replace("{path}", str(path)) for a in args),
                     env_extra={"COLUMNS": "80"})
    assert result.returncode == code
    assert result.stdout == ""
    assert result.stderr == stderr.replace("{path}", str(path))


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


class TestZeroIntegrals:
    def test_zero_integral_reports_null_log_value(self):
        # on the oracle too: a zero that the prior makes is a result
        for scheme in ("gauss", "oracle"):
            result = run_cli("integrate", "--counts", "1,1", "--prior", "0",
                             "--scheme", scheme)
            assert result.returncode == 0, result.stderr
            report = json.loads(result.stdout, parse_constant=_reject_constant)
            assert report["results"]["log_value"] is None
            assert report["results"]["value"] == 0.0

    @pytest.mark.parametrize("counts", ["400,300,200", "10000,3,2000,7"])
    def test_an_oracle_that_underflows_with_no_prior_exits_3(self, counts):
        # the true logs are about -961 and -5500, zero in linear doubles;
        # with no prior that zero cannot be the integral
        result = run_cli("integrate", "--counts", counts, "--scheme", "oracle")
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numerical failure: the nested oracle underflowed to 0\n"
        )

    def test_plain_output_prints_minus_inf_for_the_log(self):
        result = run_cli("integrate", "--counts", "1,1", "--prior", "0",
                         "--plain")
        assert result.returncode == 0
        assert result.stdout.splitlines()[:2] == ["-inf", "0.0"]

    def test_moment_over_a_zero_normalizer_exits_3(self):
        result = run_cli("integrate", "--counts", "1,1", "--prior", "0",
                         "--moment", "1")
        assert result.returncode == 3
        assert result.stdout == ""
        assert "numerical failure" in result.stderr

    def test_non_finite_results_never_reach_the_report(self):
        from simplexquad.cli import _render
        from simplexquad.quadrature import IntegrationError

        for plain in (False, True):
            with pytest.raises(IntegrationError, match="NaN or infinite"):
                _render({"command": "compare",
                         "results": {"max_relative_deviation": math.nan}},
                        plain)
