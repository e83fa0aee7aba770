"""Base of the package's mutable report classes."""


class Report:
    """A record whose fields are the attributes its ``__init__`` sets, in order.

    The repr lists them as ``Name(field=value, ...)``.  Two reports are
    equal when they are of one class with equal fields, and a report is
    unhashable, since its fields may change.
    """

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)
