"""IPv4 addresses, CIDR prefixes, and longest-prefix-match lookup.

Addresses are represented as plain ``int`` values in ``[0, 2**32)``: this keeps
the world generator (which allocates millions of addresses) fast and
allocation-free.  :class:`Prefix` models a CIDR block, and :class:`PrefixTrie`
is a binary trie supporting longest-prefix-match — the data structure behind
the RouteViews-style IP-to-AS table in :mod:`repro.net.asn`.

>>> p = Prefix.from_str("192.0.2.0/24")
>>> p.contains(str_to_ip("192.0.2.77"))
True
>>> trie = PrefixTrie()
>>> trie.insert(Prefix.from_str("10.0.0.0/8"), "coarse")
>>> trie.insert(Prefix.from_str("10.1.0.0/16"), "fine")
>>> trie.lookup(str_to_ip("10.1.2.3"))
'fine'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.records import slot_init

MAX_IPV4 = 2**32 - 1


class IpError(ValueError):
    """Raised for malformed addresses or prefixes."""


def str_to_ip(text: str) -> int:
    """Parse dotted-quad notation into an integer address.

    Raises :class:`IpError` on malformed input (wrong number of octets,
    out-of-range octets, or non-numeric parts).
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise IpError(f"expected 4 octets in {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise IpError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise IpError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def ip_to_str(ip: int) -> str:
    """Render an integer address in dotted-quad notation."""
    if not 0 <= ip <= MAX_IPV4:
        raise IpError(f"address out of range: {ip}")
    return f"{(ip >> 24) & 0xFF}.{(ip >> 16) & 0xFF}.{(ip >> 8) & 0xFF}.{ip & 0xFF}"


@slot_init
@dataclass(frozen=True, slots=True)
class Prefix:
    """A CIDR block: ``network`` is the (masked) base address, ``length`` the mask bits."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise IpError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= MAX_IPV4:
            raise IpError(f"network address out of range: {self.network}")
        if self.network & ~self.mask():
            raise IpError(
                f"network {ip_to_str(self.network)} has host bits set for /{self.length}"
            )

    @classmethod
    def from_str(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation."""
        try:
            addr_text, length_text = text.split("/")
        except ValueError as exc:
            raise IpError(f"expected CIDR notation, got {text!r}") from exc
        if not length_text.isdigit():
            raise IpError(f"non-numeric prefix length in {text!r}")
        return cls(str_to_ip(addr_text), int(length_text))

    def mask(self) -> int:
        """The netmask as an integer (e.g. ``/24`` -> ``0xFFFFFF00``)."""
        if self.length == 0:
            return 0
        return (MAX_IPV4 << (32 - self.length)) & MAX_IPV4

    def contains(self, ip: int) -> bool:
        """Whether ``ip`` falls inside this block."""
        return (ip & self.mask()) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """Whether ``other`` is fully covered by this block (equal or more specific)."""
        return other.length >= self.length and self.contains(other.network)

    @property
    def first(self) -> int:
        """Lowest address in the block."""
        return self.network

    @property
    def last(self) -> int:
        """Highest address in the block."""
        return self.network | (~self.mask() & MAX_IPV4)

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.length)

    def addresses(self) -> Iterator[int]:
        """Iterate every address in the block (use only for small blocks)."""
        return iter(range(self.first, self.last + 1))

    def nth(self, index: int) -> int:
        """The ``index``-th address in the block; raises :class:`IpError` if out of range."""
        if not 0 <= index < self.size:
            raise IpError(f"index {index} out of range for {self}")
        return self.network + index

    def __str__(self) -> str:
        return f"{ip_to_str(self.network)}/{self.length}"


class _TrieNode:
    """Internal binary trie node."""

    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list[Optional[_TrieNode]] = [None, None]
        self.value: Any = None
        self.has_value = False


class PrefixTrie:
    """Binary trie over IPv4 prefixes with longest-prefix-match lookup.

    Values may be anything; inserting the same prefix twice overwrites the
    previous value (mirroring how a routing table converges to one origin per
    prefix).
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, prefix: Prefix, value: Any) -> None:
        """Associate ``value`` with ``prefix`` (overwrites an existing entry)."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._count += 1
        node.value = value
        node.has_value = True

    def lookup(self, ip: int) -> Any:
        """Return the value of the longest matching prefix, or ``None``."""
        node = self._root
        best: Any = node.value if node.has_value else None
        for depth in range(32):
            bit = (ip >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = node.value
        return best

    def lookup_prefix(self, ip: int) -> Optional[tuple[Prefix, Any]]:
        """Like :meth:`lookup` but also returns the matching :class:`Prefix`."""
        node = self._root
        best: Optional[tuple[Prefix, Any]] = None
        if node.has_value:
            best = (Prefix(0, 0), node.value)
        bits = 0
        for depth in range(32):
            bit = (ip >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            bits = (bits << 1) | bit
            node = child
            if node.has_value:
                length = depth + 1
                network = bits << (32 - length)
                best = (Prefix(network, length), node.value)
        return best

    def items(self) -> Iterator[tuple[Prefix, Any]]:
        """Iterate all ``(prefix, value)`` pairs in lexicographic bit order."""
        stack: list[tuple[_TrieNode, int, int]] = [(self._root, 0, 0)]
        while stack:
            node, bits, depth = stack.pop()
            if node.has_value:
                yield Prefix(bits << (32 - depth) if depth else 0, depth), node.value
            for bit in (1, 0):
                child = node.children[bit]
                if child is not None:
                    stack.append((child, (bits << 1) | bit, depth + 1))


class IpAllocator:
    """Carves disjoint CIDR blocks out of a pool of address space.

    The world generator uses one allocator per routable region so that every
    ISP, resolver, and measurement server lands on a unique, non-overlapping
    prefix — a property the attribution pipeline depends on (an IP maps to
    exactly one AS).
    """

    def __init__(self, pool: Prefix) -> None:
        self._pool = pool
        self._cursor = pool.first

    @property
    def pool(self) -> Prefix:
        """The pool this allocator carves from."""
        return self._pool

    @property
    def remaining(self) -> int:
        """Number of unallocated addresses left in the pool."""
        return self._pool.last - self._cursor + 1

    def allocate(self, length: int) -> Prefix:
        """Allocate the next free block of the given prefix length.

        Blocks are aligned to their natural boundary.  Raises
        :class:`IpError` when the pool is exhausted.
        """
        if length < self._pool.length:
            raise IpError(f"cannot allocate /{length} from pool {self._pool}")
        size = 1 << (32 - length)
        # Align the cursor up to the block's natural boundary.
        start = (self._cursor + size - 1) & ~(size - 1)
        if start + size - 1 > self._pool.last:
            raise IpError(f"pool {self._pool} exhausted allocating /{length}")
        self._cursor = start + size
        return Prefix(start, length)

    def allocate_address(self) -> int:
        """Allocate a single address (a /32) and return it as an int.

        Equivalent to ``allocate(32).network`` but skips constructing a
        :class:`Prefix` — the world generator allocates one address per node,
        so this is the hottest allocation path at paper scale.
        """
        start = self._cursor
        if start > self._pool.last:
            raise IpError(f"pool {self._pool} exhausted allocating /32")
        self._cursor = start + 1
        return start
