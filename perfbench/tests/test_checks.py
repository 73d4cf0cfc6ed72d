"""The number of outputs a tld job owes does not depend on its outcome."""

import json

import pytest

import checks
from workloads import Job

PARAMS = {"temp_mk": 30.0, "omega_c": 200.0, "s": 2, "t_max": 10.0, "threshold": 1e-4}
CROSSES = {"tau": 5.0, "d_gate": 1e-6, "d_end": None}
STAYS_BELOW = {"tau": None, "d_gate": 1e-6, "d_end": 5e-5}


def _run(tmp_path, code, report):
    out = tmp_path / "tld.json"
    if report is not None:
        out.write_text(json.dumps(report))
    return {"code": code, "stderr": "", "out": str(out)}


@pytest.mark.parametrize("refd,code,report,n_ok", [
    (CROSSES, 0, {"no_crossing": False, "tau_ld_units": 5.0, "d_at_gate": 1e-6}, 2),
    (CROSSES, 2, {"no_crossing": True, "d_at_t_max": 5e-5}, 0),
    (CROSSES, 2, None, 0),
    (STAYS_BELOW, 2, {"no_crossing": True, "d_at_t_max": 5e-5}, 2),
    (STAYS_BELOW, 0, {"no_crossing": False, "tau_ld_units": 5.0, "d_at_gate": 1e-6}, 0),
    (STAYS_BELOW, 2, None, 0),
])
def test_tld_owes_two_outputs_whatever_the_outcome(tmp_path, refd, code, report, n_ok):
    outs, broken = checks.check(Job("r0.tld0", "tld", PARAMS), _run(tmp_path, code, report), refd)
    assert broken is None
    assert len(outs) == 2
    assert sum(o.ok for o in outs) == n_ok
