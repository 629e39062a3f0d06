"""A Yjs-like CRDT baseline.

Yjs keeps the per-character CRDT structure (ids and origins, including
tombstones) but, unlike Automerge, it does not store the editing history: the
content of deleted characters and the happened-before relationship between
operations are dropped from the document file.  Loading still requires
rebuilding the whole per-character structure in memory before the document can
be edited, which is what makes CRDT loads slow compared to Eg-walker's cached
text snapshot.

``save`` therefore writes one row per character — client, clock, origins, a
deleted flag — with content only for characters that are still visible (the
format whose size Figure 12 compares against the pruned Eg-walker encoding),
and ``load`` parses those rows and reconstructs the item list, id index and
text.

Like the Automerge stand-in, this is behaviourally faithful rather than
byte-compatible with the real library; the figures compare it through
:mod:`repro.bench.adapters`.
"""

from __future__ import annotations

from ..core.ids import EventId
from ..storage.varint import ByteReader, ByteWriter
from .ref_crdt import RefCRDTDocument, _StoredItem

__all__ = ["YjsLikeDocument"]

_MAGIC = b"YJLK"


class YjsLikeDocument(RefCRDTDocument):
    """Tombstone-keeping, history-dropping CRDT document in the style of Yjs."""

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self) -> bytes:
        writer = ByteWriter()
        writer.write_bytes(_MAGIC)
        clients: list[str] = []
        client_index: dict[str, int] = {}
        for item in self.items:
            if item.agent not in client_index:
                client_index[item.agent] = len(clients)
                clients.append(item.agent)
            for origin in (item.origin_left, item.origin_right):
                if origin is not None and origin.agent not in client_index:
                    client_index[origin.agent] = len(clients)
                    clients.append(origin.agent)
        writer.write_uvarint(len(clients))
        for client in clients:
            writer.write_string(client)

        writer.write_uvarint(len(self.items))
        visible_parts: list[str] = []
        for item in self.items:
            writer.write_uvarint(client_index[item.agent])
            writer.write_uvarint(item.seq)
            self._write_origin(writer, client_index, item.origin_left)
            self._write_origin(writer, client_index, item.origin_right)
            writer.write_uvarint(1 if item.deleted else 0)
            if not item.deleted:
                visible_parts.append(item.content)
        writer.write_string("".join(visible_parts))
        return writer.getvalue()

    @staticmethod
    def _write_origin(
        writer: ByteWriter, client_index: dict[str, int], origin: EventId | None
    ) -> None:
        if origin is None:
            writer.write_uvarint(0)
            return
        writer.write_uvarint(1)
        writer.write_uvarint(client_index[origin.agent])
        writer.write_uvarint(origin.seq)

    @classmethod
    def load(cls, data: bytes) -> "YjsLikeDocument":
        """Rebuild the item list, id index and document text from disk bytes."""
        reader = ByteReader(data)
        if reader.read_bytes(4) != _MAGIC:
            raise ValueError("not a Yjs-like document file")
        client_count = reader.read_uvarint()
        clients = [reader.read_string() for _ in range(client_count)]
        count = reader.read_uvarint()
        rows: list[tuple[str, int, EventId | None, EventId | None, bool]] = []
        for _ in range(count):
            client = clients[reader.read_uvarint()]
            clock = reader.read_uvarint()
            origin_left = cls._read_origin(reader, clients)
            origin_right = cls._read_origin(reader, clients)
            deleted = bool(reader.read_uvarint())
            rows.append((client, clock, origin_left, origin_right, deleted))
        visible_content = reader.read_string()

        doc = cls()
        items: list[_StoredItem] = []
        content_iter = iter(visible_content)
        text_parts: list[str] = []
        for client, clock, origin_left, origin_right, deleted in rows:
            content = "" if deleted else next(content_iter, "")
            item = _StoredItem(
                agent=client,
                seq=clock,
                origin_left=origin_left,
                origin_right=origin_right,
                content=content,
                deleted=deleted,
            )
            items.append(item)
            if not deleted:
                text_parts.append(content)
        doc.items = items
        doc.by_id = {EventId(i.agent, i.seq): i for i in items}
        doc.text = "".join(text_parts)
        return doc

    @staticmethod
    def _read_origin(reader: ByteReader, clients: list[str]) -> EventId | None:
        if not reader.read_uvarint():
            return None
        client = clients[reader.read_uvarint()]
        clock = reader.read_uvarint()
        return EventId(client, clock)
