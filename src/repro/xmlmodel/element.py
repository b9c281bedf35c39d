"""The XML abstraction of Section 2 of the paper.

An element (Definition 2.1) is a triplet of a *name*, a unique *ID*,
and *content*, where content is either a sequence of elements or a
PCDATA string.  A valid document (Definition 2.4) is an element
together with a DTD and a root document type.

Following the paper's simplifying assumptions, there are no attributes
other than ID, no empty elements, no mixed content, and no entities.
Elements *with empty content* (an empty sequence of children) are
allowed and distinct from PCDATA elements with the empty string.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

_id_counter = itertools.count(1)


def fresh_id() -> str:
    """A document-unique element ID (``e1``, ``e2``, ...)."""
    return f"e{next(_id_counter)}"


# Process-wide mutation clock.  Every mutating API stamps its element
# (and bumps this global), so caches keyed on object identity -- the
# document index, chiefly -- can validate a hit in O(1) against the
# global stamp and only fall back to a scan when *something* mutated
# since they were built (see repro.xmlmodel.index.document_index).
_mutations = 0


def mutation_stamp() -> int:
    """The current value of the global mutation clock."""
    return _mutations


def _bump_mutations() -> int:
    global _mutations
    _mutations += 1
    return _mutations


@dataclass(eq=False)
class Element:
    """An XML element per Definition 2.1.

    ``content`` is either a list of child elements (element content) or
    a string (PCDATA content).  Identity (the ID attribute) is explicit
    so that queries can express ID inequality (``Pub1 != Pub2``).
    Structural equality is provided by :meth:`structurally_equal`;
    ``==`` stays identity-based because two distinct elements with the
    same shape are different objects in a document.
    """

    name: str
    content: Union[list["Element"], str]
    id: str = field(default_factory=fresh_id)
    #: non-ID attributes (Appendix A layer; empty under the core model)
    attributes: dict[str, str] = field(default_factory=dict)
    #: value of the global mutation clock at this element's last
    #: mutation (0 = never mutated); maintained by the mutating APIs
    mutation_version: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("element name must be non-empty")

    # -- mutation (version-stamped) -------------------------------------
    #
    # Documents served by sources are immutable in practice, which is
    # what makes index caching sound -- but nothing stops a caller from
    # editing a held tree.  Mutations MUST go through these APIs: they
    # stamp the element so the cached document index can detect the
    # edit instead of silently answering against the old tree.

    def _touch(self) -> None:
        self.mutation_version = _bump_mutations()

    def append_child(self, child: "Element") -> None:
        """Append a child element (element content only)."""
        if isinstance(self.content, str):
            raise ValueError(
                f"element {self.name!r} has PCDATA content; cannot append"
            )
        self.content.append(child)
        self._touch()

    def insert_child(self, index: int, child: "Element") -> None:
        """Insert a child element at ``index`` (element content only)."""
        if isinstance(self.content, str):
            raise ValueError(
                f"element {self.name!r} has PCDATA content; cannot insert"
            )
        self.content.insert(index, child)
        self._touch()

    def remove_child(self, child: "Element") -> None:
        """Remove a child element (by identity, then equality)."""
        if isinstance(self.content, str):
            raise ValueError(
                f"element {self.name!r} has PCDATA content; cannot remove"
            )
        self.content.remove(child)
        self._touch()

    def set_content(self, content: Union[list["Element"], str]) -> None:
        """Replace the whole content (children list or PCDATA string)."""
        self.content = content
        self._touch()

    def set_text(self, value: str) -> None:
        """Replace the content with a PCDATA string."""
        self.content = value
        self._touch()

    def set_attribute(self, name: str, value: str) -> None:
        """Set a non-ID attribute."""
        self.attributes[name] = value
        self._touch()

    @property
    def is_pcdata(self) -> bool:
        """True when this element has character (string) content."""
        return isinstance(self.content, str)

    @property
    def children(self) -> list["Element"]:
        """Child elements; empty for PCDATA content."""
        if isinstance(self.content, str):
            return []
        return self.content

    @property
    def text(self) -> str | None:
        """The PCDATA string, or None for element content."""
        if isinstance(self.content, str):
            return self.content
        return None

    def child_names(self) -> list[str]:
        """The name sequence of the children (what content models see)."""
        return [child.name for child in self.children]

    def iter(self) -> Iterator["Element"]:
        """Depth-first, left-to-right traversal including self.

        This is the document order used by the paper for view results.
        Iterative (explicit stack): recursive-chain documents nested
        deeper than the interpreter's recursion limit traverse fine.
        """
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            content = element.content
            if not isinstance(content, str):
                stack.extend(reversed(content))

    def find_all(self, predicate: Callable[["Element"], bool]) -> list["Element"]:
        """All descendants-or-self satisfying ``predicate``, document order."""
        return [e for e in self.iter() if predicate(e)]

    def descendants_named(self, name: str) -> list["Element"]:
        """All descendants-or-self with the given name, document order."""
        return self.find_all(lambda e: e.name == name)

    def structurally_equal(self, other: "Element") -> bool:
        """Shape equality ignoring IDs but comparing strings.

        Two documents in the same *structural class* (Definition 3.5)
        additionally allow string renaming; see
        :func:`repro.dtd.tightness.same_structural_class`.
        """
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if mine.name != theirs.name:
                return False
            if mine.attributes != theirs.attributes:
                return False
            if mine.is_pcdata != theirs.is_pcdata:
                return False
            if mine.is_pcdata:
                if mine.content != theirs.content:
                    return False
                continue
            if len(mine.children) != len(theirs.children):
                return False
            stack.extend(zip(mine.children, theirs.children))
        return True

    def deep_copy(self, fresh_ids: bool = False) -> "Element":
        """A structural copy; ``fresh_ids`` re-IDs every element.

        Built iteratively: a preorder pass collects the nodes (so fresh
        IDs are assigned in document order, as the recursive version
        did), then copies are constructed children-first.
        """
        nodes: list[Element] = []
        child_lists: list[list[int]] = []
        stack: list[tuple[Element, int]] = [(self, -1)]
        while stack:
            node, parent_index = stack.pop()
            index = len(nodes)
            nodes.append(node)
            child_lists.append([])
            if parent_index >= 0:
                child_lists[parent_index].append(index)
            if not isinstance(node.content, str):
                for child in reversed(node.content):
                    stack.append((child, index))
        new_ids = [fresh_id() if fresh_ids else node.id for node in nodes]
        copies: list[Element | None] = [None] * len(nodes)
        for index in range(len(nodes) - 1, -1, -1):
            node = nodes[index]
            content: Union[list[Element], str]
            if isinstance(node.content, str):
                content = node.content
            else:
                content = [copies[c] for c in child_lists[index]]  # type: ignore[misc]
            copies[index] = Element(
                node.name, content, new_ids[index], dict(node.attributes)
            )
        return copies[0]  # type: ignore[return-value]

    def size(self) -> int:
        """Number of elements in the subtree (a benchmark measure)."""
        return sum(1 for _ in self.iter())

    def depth(self) -> int:
        """Height of the subtree (a single element has depth 1)."""
        best = 1
        stack: list[tuple[Element, int]] = [(self, 1)]
        while stack:
            node, level = stack.pop()
            if level > best:
                best = level
            for child in node.children:
                stack.append((child, level + 1))
        return best

    def __repr__(self) -> str:
        if self.is_pcdata:
            return f"<{self.name} {self.id}>{self.content!r}"
        return f"<{self.name} {self.id}>[{len(self.children)} children]"


@dataclass(eq=False)
class Document:
    """A document: a root element (and, conceptually, its DTD).

    The DTD itself lives in :mod:`repro.dtd`; a *valid* document pairs
    the two -- see :func:`repro.dtd.validation.validate_document`.
    """

    root: Element
    #: global-mutation-clock value at the last document-level mutation
    #: (``replace_root``); element edits stamp the elements themselves
    mutation_version: int = field(default=0, init=False, repr=False)
    #: on a query answer: how many top-level picks each input document
    #: contributed, in input order (the answer's children are exactly
    #: those picks, concatenated); ``None`` on anything else
    pick_counts: tuple[int, ...] | None = field(
        default=None, init=False, repr=False
    )

    def replace_root(self, root: Element) -> None:
        """Swap the root element (a document-level, version-stamped edit)."""
        self.root = root
        self.mutation_version = _bump_mutations()

    @property
    def root_type(self) -> str:
        """The document type: the name of the root element."""
        return self.root.name

    def iter(self) -> Iterator[Element]:
        """Document-order traversal of all elements."""
        return self.root.iter()

    def check_unique_ids(self) -> list[str]:
        """IDs appearing more than once (valid documents have none)."""
        seen: set[str] = set()
        duplicates: list[str] = []
        for element in self.iter():
            if element.id in seen:
                duplicates.append(element.id)
            seen.add(element.id)
        return duplicates

    def element_by_id(self, element_id: str) -> Element | None:
        """Look up an element by its ID attribute."""
        for element in self.iter():
            if element.id == element_id:
                return element
        return None

    def size(self) -> int:
        """Number of elements in the document."""
        return self.root.size()


def elem(name: str, *children: Element, id: str | None = None) -> Element:
    """Build an element with element content."""
    return Element(name, list(children), id if id is not None else fresh_id())


def text_elem(name: str, value: str, id: str | None = None) -> Element:
    """Build an element with PCDATA content."""
    return Element(name, value, id if id is not None else fresh_id())
