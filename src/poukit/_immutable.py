"""The one idiom for the library's values: frozen, slotted dataclasses."""

from dataclasses import dataclass


def immutable(cls=None, /, **options):
    """``dataclass(frozen=True, slots=True, **options)``, with or without
    arguments.  ``slots`` builds a new class, and the ``__setattr__`` and
    ``__delattr__`` that Python 3.11 generates still name the old one, so
    they raised TypeError on an attribute that is no field; they are pointed
    at the new class, so that every assignment raises FrozenInstanceError."""
    if cls is None:
        return lambda c: immutable(c, **options)
    new = dataclass(cls, frozen=True, slots=True, **options)
    for fn in (new.__setattr__, new.__delattr__):
        for cell in fn.__closure__ or ():
            if cell.cell_contents is cls:
                cell.cell_contents = new
    return new
