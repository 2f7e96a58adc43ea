import inspect
import pickle

import pytest

from sdetci import errors

# constructor arguments of every error class, keyword ones as a dict; a
# class missing here fails its test with a KeyError
_ARGS = {
    "SdetciError": (("plain message",), {}),
    "InvalidCoefficient": (("drift", [0.5, -1.0]), {}),
    "BlowupError": ((4,), {}),
    "NotContractive": ((8.0, [0.5, 1.2]), {}),
    "EllipticSolverError": (("singular operator",), {}),
    "GradientTooLarge": ((0.7, 0.5), {}),
    "OutOfDomain": (("left the box",), {}),
    "InconclusiveEstimate": (("noise above signal",), {}),
    "FitFailure": (("no fit",), {"worst_point": [1.0, 2.0]}),
    "ConsistencyFailure": (("errors not decreasing",), {}),
    "UseSinkhorn": (("too large",), {}),
    "ConfigError": (("need n >= 1",), {"key_path": "n_paths"}),
}
_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
            if issubclass(c, errors.SdetciError)]


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_error_survives_pickling(cls):
    # a forked path part sends its error to the parent pickled
    args, kwargs = _ARGS[cls.__name__]
    err = cls(*args, **kwargs)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)
