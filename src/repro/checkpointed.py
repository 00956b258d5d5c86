"""Declared checkpoint state: the :class:`Checkpointed` mixin and its codec.

A checkpointed class names the attributes a resume must restore in
``_STATE`` and the mutable attributes it deliberately leaves to the
constructor in ``_TRANSIENT`` (attribute -> reason).  The mixin's
``state_dict``/``load_state`` encode an unannotated ``_STATE`` attribute
by the kind of value it holds (:func:`encode`, :func:`decode`):

* JSON scalars, and str-keyed dicts and lists of them, go as they are;
* a ``random.Random`` goes packed, as ``[version, base64 of its 625
  state words as little-endian uint32, gauss_next]``;
* a set goes sorted, a ``Counter`` as a dict;
* a component -- anything with its own ``state_dict``/``load_state``,
  or a str-keyed dict or a list of components -- goes through its own
  pair.

An attribute the class annotates (``actions: List[EnforcementAction]``)
goes by its annotation instead, which may also name the kinds JSON
cannot tell apart from those, and its load rebuilds each with its exact
class:

* a tuple goes as a list;
* a dataclass row as the list of its ``init`` fields, in order;
* an ``Enum`` as its value;
* an ``array`` as ``[typecode, values]``;
* a dict with non-str keys as ``[key, value]`` pairs, sorted, and an
  ``OrderedDict`` always as pairs, in insertion order (a
  ``DefaultDict`` gets its values' empty class as its factory);
* ``object`` (or ``Any``) as an unannotated value.

:func:`state_plan` resolves a class's annotations once, with
``typing.get_type_hints``, into an encoder and a loader per attribute;
an annotation the codec cannot decode is a ``TypeError`` there.  Any
other value is a ``TypeError`` at encode time, and so is a container,
row, enum or array whose class is not the one its annotation names (the
load could not rebuild it); scalars are not checked against theirs.

A load restores RNGs and components in place, so every reference a
constructor handed out (a server's RNG shared with its connection
handlers) sees the restored state; every other value is replaced by a
fresh copy.  A component may be absent: an attribute annotated
``Optional[...]`` of a component class, or a ``None`` entry in a dict of
components.  A load refuses, with a ``ValueError`` naming the attribute
or root, a checkpoint that holds state for a component the run lacks,
or none for one it has.  A pipeline names its checkpoint roots once, as
an ordered str-keyed dict of components: ``encode`` of that dict is its
checkpoint, and ``decode`` restores the roots in the dict's order
(DESIGN.md §7).

This module imports nothing from ``repro``: the network layer imports
it at module level, and ``repro.recovery``'s package init imports
``repro.net.chaos``.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import functools
import operator
import random
import struct
import typing
from array import array
from collections import Counter, OrderedDict, defaultdict
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Tuple, Union,
)

#: Separator for flattened tuple keys.  ``\x1f`` (ASCII unit separator)
#: cannot appear in hostnames, label values, or package ids.
KEY_SEP = "\x1f"

_SCALARS = (str, int, float, bool, type(None))
_SCALAR_TYPES = frozenset(_SCALARS)

#: A Mersenne Twister state: 624 words plus the position.
_RNG_WORDS = struct.Struct("<625I")

Encode = Callable[[Any], object]
Decode = Callable[[Any], object]
#: ``(current value, checkpoint data) -> the attribute's value``.
LoadAttribute = Callable[[object, object], object]


def join_key(*parts: Any) -> str:
    """Flatten a tuple key into one string for a JSON object key."""
    return KEY_SEP.join(str(part) for part in parts)


def split_key(key: str) -> List[str]:
    return key.split(KEY_SEP)


def _is_component(value: object) -> bool:
    return hasattr(value, "load_state")


def _holds_components(value: object) -> bool:
    items = value.values() if isinstance(value, dict) else value
    return any(_is_component(item) or isinstance(item, random.Random)
               for item in items)  # type: ignore[union-attr]


def _pack_rng(rng: random.Random) -> List[object]:
    version, internal, gauss_next = rng.getstate()
    words = base64.b64encode(_RNG_WORDS.pack(*internal)).decode("ascii")
    return [version, words, gauss_next]


def _unpack_rng(rng: random.Random, data: Any) -> random.Random:
    version, words, gauss_next = data
    rng.setstate((version, _RNG_WORDS.unpack(base64.b64decode(words)),
                  gauss_next))
    return rng


# -- by value -----------------------------------------------------------------


def encode(value: object) -> object:
    """``value``, unannotated, as a JSON-safe checkpoint value (see the
    module doc)."""
    if isinstance(value, _SCALARS):
        return value
    if _is_component(value):
        return value.state_dict()  # type: ignore[attr-defined]
    if isinstance(value, random.Random):
        return _pack_rng(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"cannot checkpoint a {type(key).__name__} "
                                f"dict key ({key!r})")
            encoded[key] = encode(item)
        return encoded
    if isinstance(value, list):
        return [encode(item) for item in value]
    raise TypeError(f"cannot checkpoint a {type(value).__name__}")


def _load_component(current: object, data: object, where: str) -> object:
    """Load ``data`` into the component ``current`` in place; ``None``
    on either side is an absent component, and both must agree."""
    if current is None:
        if data is not None:
            raise ValueError(f"the checkpoint holds state for {where}, "
                             "which this run does not have")
        return None
    if data is None:
        raise ValueError(f"the checkpoint holds no state for {where}, "
                         "which this run has")
    current.load_state(data)  # type: ignore[attr-defined]
    return current


def decode(current: object, data: Any, where: str = "roots") -> object:
    """Restore ``data`` over ``current``, an unannotated attribute's
    value in a freshly constructed object (or a pipeline's roots);
    returns the value the attribute holds afterwards (``current``
    itself when restored in place).  ``where`` names it in errors."""
    if _is_component(current):
        return _load_component(current, data, where)
    if isinstance(current, random.Random):
        return _unpack_rng(current, data)
    if isinstance(current, (set, frozenset)):
        return type(current)(data)
    if isinstance(current, Counter):
        return Counter(data)
    if isinstance(current, (dict, list)) and _holds_components(current):
        if len(data) != len(current):
            raise ValueError(
                f"checkpoint holds {len(data)} components where this run "
                f"has {len(current)}")
        for key in current if isinstance(current, dict) \
                else range(len(current)):
            item, label = current[key], f"{where}[{key!r}]"
            if item is None:
                _load_component(None, data[key], label)
            else:
                decode(item, data[key], label)
        return current
    return _copy(data)


def _copy(data: object) -> object:
    if isinstance(data, dict):
        return {key: _copy(item) for key, item in data.items()}
    if isinstance(data, list):
        return [_copy(item) for item in data]
    return data


# -- by annotation ------------------------------------------------------------


def _same(data: object) -> object:
    return data


def _mismatch(value: object, kind: type) -> TypeError:
    return TypeError(f"cannot checkpoint a {type(value).__name__} "
                     f"annotated as {kind.__name__}")


def _checked(kind: type, encode_value: Encode) -> Encode:
    """``encode_value`` for values of exactly ``kind``."""
    def encode_checked(value: Any) -> object:
        if type(value) is not kind:
            raise _mismatch(value, kind)
        return encode_value(value)
    return encode_checked


def _each(code: Callable[[Any], object]) -> Callable[[Any], List[object]]:
    if code is _same:
        return list
    return lambda values: [code(item) for item in values]


@functools.lru_cache(maxsize=None)
def _codec(hint: Any) -> Tuple[Encode, Decode]:
    """The encoder and decoder of a value annotated ``hint``; a
    ``TypeError`` for an annotation the codec cannot decode."""
    if hint in _SCALAR_TYPES:
        return _same, _same
    if hint is Any or hint is object:
        return encode, _copy
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        if all(arg in _SCALAR_TYPES for arg in args):
            return _same, _same
        kinds = [arg for arg in args if arg is not type(None)]
        if len(kinds) == 1:
            inner_encode, inner_decode = _codec(kinds[0])
            return (lambda value: None if value is None
                    else inner_encode(value),
                    lambda data: None if data is None
                    else inner_decode(data))
    elif origin in (list, tuple, set, frozenset) and args:
        return _sequence_codec(origin, args)
    elif origin is Counter and args:
        return _dict_codec(Counter, args[0], int)
    elif origin in (dict, defaultdict, OrderedDict) and args:
        return _dict_codec(origin, *args)
    elif isinstance(hint, type):
        if issubclass(hint, enum.Enum):
            return _checked(hint, lambda value: encode(value.value)), hint
        if hint is array:
            return (_checked(array, lambda value: [value.typecode,
                                                   value.tolist()]),
                    lambda data: array(*data))
        if dataclasses.is_dataclass(hint):
            return _row_codec(hint)
    raise TypeError(f"the checkpoint codec cannot decode {hint!r}")


def _sequence_codec(origin: type, args: Tuple[Any, ...]
                    ) -> Tuple[Encode, Decode]:
    if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        codecs = [_codec(arg) for arg in args]
        if all(code is _same for code, _ in codecs):
            return _checked(tuple, list), tuple
        return (_checked(tuple, lambda value: [
                    code(item) for (code, _), item in zip(codecs, value)]),
                lambda data: tuple(
                    code(item) for (_, code), item in zip(codecs, data)))
    item_encode, item_decode = _codec(args[0])
    if origin in (set, frozenset):
        return (_checked(origin, sorted if item_encode is _same else
                         lambda value: [item_encode(item)
                                        for item in sorted(value)]),
                lambda data: origin(map(item_decode, data)))
    decode_each = _each(item_decode)
    return (_checked(origin, _each(item_encode)),
            decode_each if origin is list
            else lambda data: tuple(decode_each(data)))


def _dict_codec(origin: type, key_hint: Any, value_hint: Any
                ) -> Tuple[Encode, Decode]:
    key_encode, key_decode = _codec(key_hint)
    item_encode, item_decode = _codec(value_hint)
    if origin is OrderedDict:
        encode_items = lambda value: [  # noqa: E731
            [key_encode(key), item_encode(item)]
            for key, item in value.items()]
    elif key_hint is str:
        encode_items = lambda value: {  # noqa: E731
            key: item_encode(item) for key, item in value.items()}
    else:
        encode_items = lambda value: [  # noqa: E731
            [key_encode(key), item_encode(item)]
            for key, item in sorted(value.items())]
    build: Callable[[Any], object] = origin
    if origin is defaultdict:
        build = functools.partial(defaultdict, _default_factory(value_hint))
    elif origin is Counter:
        # ``Counter(pairs)`` would count the pairs.
        build = lambda pairs: Counter(dict(pairs))  # noqa: E731

    def decode_items(data: Any) -> object:
        # An empty dict encodes as ``{}`` whatever its key class.
        pairs = data.items() if isinstance(data, dict) else data
        return build((key_decode(key), item_decode(item))
                     for key, item in pairs)
    return _checked(origin, encode_items), decode_items


def _default_factory(hint: Any) -> Callable[[], object]:
    """The factory of a ``DefaultDict`` whose values are ``hint``s: the
    empty value of its class, nested defaultdicts included."""
    origin = typing.get_origin(hint) or hint
    if origin is defaultdict:
        return functools.partial(defaultdict,
                                 _default_factory(typing.get_args(hint)[1]))
    if origin in (int, float, str, bool, list, dict, set, frozenset, tuple,
                  Counter, OrderedDict):
        return origin
    raise TypeError(f"no default value for a defaultdict of {hint!r}")


def _row_codec(cls: type) -> Tuple[Encode, Decode]:
    """A dataclass row as the list of its ``init`` fields, in order;
    only the fields whose annotation is not a scalar go through their
    own codec."""
    fields = dataclasses.fields(cls)
    for field in fields:
        if not field.init:
            raise TypeError(f"cannot checkpoint a {cls.__name__} row: its "
                            f"field {field.name!r} is not an init field")
    hints = typing.get_type_hints(cls)
    names = [field.name for field in fields]
    codecs = [_codec(hints[name]) for name in names]
    encoders = [(index, code) for index, (code, _) in enumerate(codecs)
                if code is not _same]
    decoders = [(index, code) for index, (_, code) in enumerate(codecs)
                if code is not _same]
    get = (operator.attrgetter(*names) if len(names) > 1
           else lambda row: [getattr(row, name) for name in names])

    def encode_row(row: Any) -> List[object]:
        if type(row) is not cls:
            raise _mismatch(row, cls)
        values = list(get(row))
        for index, code in encoders:
            values[index] = code(values[index])
        return values

    def decode_row(data: Any) -> object:
        values = list(data)
        for index, code in decoders:
            values[index] = code(values[index])
        return cls(*values)
    return encode_row, decode_row


def _attribute_codec(hint: Any, where: str) -> Tuple[Encode, LoadAttribute]:
    """How an attribute annotated ``hint`` encodes and loads: RNGs and
    components in place, anything else rebuilt by its codec."""
    component = hint
    if typing.get_origin(hint) is Union:
        kinds = [arg for arg in typing.get_args(hint)
                 if arg is not type(None)]
        if len(kinds) == 1:
            component = kinds[0]
    if isinstance(component, type) and hasattr(component, "load_state"):
        return (lambda value: None if value is None else value.state_dict(),
                lambda current, data: _load_component(current, data, where))
    if hint is random.Random:
        return _pack_rng, _unpack_rng
    encode_value, decode_value = _codec(hint)
    return encode_value, lambda current, data: decode_value(data)


@functools.lru_cache(maxsize=None)
def state_plan(cls: type
               ) -> Tuple[Tuple[str, str, Encode, Optional[LoadAttribute]],
                          ...]:
    """``(attribute, "Class.attribute", encoder, loader)`` for each of
    ``cls``'s ``_STATE`` attributes, in order.  An annotated attribute
    goes through its annotation's codec; an unannotated one encodes by
    value and has no loader (:func:`decode` restores it).  Raises
    ``TypeError`` for an annotation the codec cannot decode."""
    hints = typing.get_type_hints(cls)
    plan = []
    for name in cls._STATE:  # type: ignore[attr-defined]
        where = f"{cls.__qualname__}.{name}"
        if name in hints:
            plan.append((name, where, *_attribute_codec(hints[name], where)))
        else:
            plan.append((name, where, encode, None))
    return tuple(plan)


class Checkpointed:
    """Mixin: ``state_dict``/``load_state`` over the class's ``_STATE``.

    ``_TRANSIENT`` maps each attribute a resume leaves to the
    constructor, although the run mutates it, to the reason that is
    safe; the state audit reads it.
    """

    _STATE: Tuple[str, ...] = ()
    _TRANSIENT: Dict[str, str] = {}

    def state_dict(self) -> Dict[str, object]:
        return {name: encode_value(getattr(self, name))
                for name, _, encode_value, _ in state_plan(type(self))}

    def load_state(self, state: Mapping[str, object]) -> None:
        for name, where, _, load in state_plan(type(self)):
            current = getattr(self, name)
            setattr(self, name,
                    decode(current, state[name], where) if load is None
                    else load(current, state[name]))
