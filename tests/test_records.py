"""The validated records: immutable named tuples that check every field."""

import pytest

from decoq.bath import BathSpec
from decoq.discrete import DiscreteBath
from decoq.states import QubitState
from decoq.oracle import CompositeSystem, TruncatedBathMode

MODE = TruncatedBathMode(omega=8.0, g=0.5, n_fock=4)

# record, valid fields, then one bad field and the error it raises
RECORDS = [
    (BathSpec, dict(eta=1e-6, omega_c=200.0, beta=10.0, s=1.0),
     "eta", -1.0, ValueError),
    (DiscreteBath, dict(omegas=[1.0, 2.0], g_sq=[0.1, 0.2]),
     "omegas", [-2.0, 1.0], ValueError),
    (QubitState, dict(rho=[[1.0, 0.0], [0.0, 0.0]], basis="eigenbasis"),
     "basis", "bloch", ValueError),
    (TruncatedBathMode, dict(omega=8.0, g=0.5, n_fock=4),
     "n_fock", 8.5, TypeError),
    (CompositeSystem, dict(e_j=1.0, modes=(MODE,)),
     "modes", (), ValueError),
]
HASHABLE = (BathSpec, TruncatedBathMode, CompositeSystem)


@pytest.mark.parametrize(
    "record,fields,bad_field,bad_value,error", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_contract(record, fields, bad_field, bad_value, error):
    value = record(**fields)
    assert value._fields == tuple(fields)

    # a bad field fails the same way constructed and replaced
    with pytest.raises(error) as made:
        record(**{**fields, bad_field: bad_value})
    with pytest.raises(error) as replaced:
        value._replace(**{bad_field: bad_value})
    assert str(replaced.value) == str(made.value)

    with pytest.raises(AttributeError):
        setattr(value, bad_field, bad_value)
    with pytest.raises(AttributeError):
        value.extra = 1

    if record in HASHABLE:
        assert record(**fields) == value
        assert hash(record(**fields)) == hash(value)
