"""Wall-clock request-path benchmark (see README.md in this directory).

Drives real HTTP request bytes through ``WebServer.handle_bytes``
against an attested 3-drive controller and reports end-to-end metrics
plus a per-layer ledger.  Everything here measures ``src/repro`` from
outside; nothing under ``src/`` knows this package exists.
"""
