"""Serialization of documents back to XML text."""

from __future__ import annotations

from typing import Callable, Sequence

from .element import Document, Element

_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}


def _escape(text: str) -> str:
    for raw, entity in _ESCAPES.items():
        text = text.replace(raw, entity)
    return text


def serialize_element(
    element: Element,
    indent: int = 2,
    include_ids: bool = False,
    _level: int = 0,
) -> str:
    """Render an element as XML text.

    ``include_ids`` emits the ID attributes (off by default: generated
    IDs are noise in goldens and examples).
    """
    pad = " " * (indent * _level)
    tag = _open_tag(element, include_ids)
    if element.is_pcdata:
        return f"{pad}{tag}>{_escape(element.text or '')}</{element.name}>"
    if not element.children:
        return f"{pad}{tag}/>"
    inner = "\n".join(
        serialize_element(child, indent, include_ids, _level + 1)
        for child in element.children
    )
    return f"{pad}{tag}>\n{inner}\n{pad}</{element.name}>"


def _open_tag(element: Element, include_ids: bool) -> str:
    """``<name`` plus the attributes, without the closing bracket."""
    tag = f"<{element.name}"
    if include_ids:
        tag += f' id="{element.id}"'
    for attr_name in sorted(element.attributes):
        value = _escape(element.attributes[attr_name]).replace('"', "&quot;")
        tag += f' {attr_name}="{value}"'
    return tag


def join_document(
    root: Element,
    children: Sequence[str],
    include_ids: bool = False,
    escape: Callable[[str], str] = str,
) -> str:
    """A document's text from its root and the root's children, each
    already rendered by :func:`serialize_element` at level 1.

    ``escape`` maps the join's own text (declaration, root tags, line
    breaks) into the form ``children`` are in, so a caller that keeps
    the children escaped -- as JSON string bodies, say -- gets the
    escaped document without re-rendering it.
    """
    declaration = '<?xml version="1.0"?>\n'
    if not children:
        body = serialize_element(root, 2, include_ids)
        return escape(f"{declaration}{body}\n")
    return (
        escape(f"{declaration}{_open_tag(root, include_ids)}>\n")
        + escape("\n").join(children)
        + escape(f"\n</{root.name}>\n")
    )


def serialize_document(
    document: Document,
    indent: int = 2,
    include_ids: bool = False,
) -> str:
    """Render a document (root element) as XML text with a declaration."""
    children = [
        serialize_element(child, indent, include_ids, 1)
        for child in document.root.children
    ]
    return join_document(document.root, children, include_ids)
