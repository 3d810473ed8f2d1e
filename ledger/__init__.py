"""The repo's benchmark ledger; see ``ledger/README.md``.

Run ``python3 -m ledger`` from the repository root.
"""
