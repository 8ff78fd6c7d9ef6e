"""The private base of the immutable value types.

A subclass lists its fields in __slots__ and sets each once, through
object.__setattr__.  Assignment and deletion raise; copy and pickle carry
the slots that are set and rebuild without __init__; equality and hash
are slot-wise.  A slot named in _cached holds a value that each process
computes for itself (a hash of salted str hashes), so copies leave it out.
"""


def _restore(cls, state):
    obj = object.__new__(cls)
    for name, value in state.items():
        object.__setattr__(obj, name, value)
    return obj


class Frozen:
    __slots__ = ()
    _cached = ()

    def __init_subclass__(cls):
        names = [n for c in reversed(cls.__mro__) for n in vars(c).get("__slots__", ())]
        cls._fields = tuple(n for n in names if n not in cls._cached)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _state(self):
        """{slot: value} for each slot that is set, read past __getattr__
        (so a factored RatFunc is not multiplied out)."""
        state = {}
        for name in self._fields:
            try:
                state[name] = object.__getattribute__(self, name)
            except AttributeError:
                pass
        return state

    def __reduce__(self):
        return _restore, (type(self), self._state())

    def __eq__(self, other):
        # a Divisor equals a ZeroCycle with the same coefficients
        return (
            isinstance(other, Frozen)
            and (isinstance(other, type(self)) or isinstance(self, type(other)))
            and self._state() == other._state()
        )

    def __hash__(self):
        # a dict slot hashes as the set of its items: equal dicts may differ in order
        return hash(tuple(
            frozenset(v.items()) if isinstance(v, dict) else v for v in self._state().values()
        ))
