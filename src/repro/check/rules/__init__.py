"""The built-in rule packs.

Importing a rule module registers its rules; :mod:`repro.check`'s
package ``__init__`` imports all five packs so ``repro check`` always
runs the full catalogue. See ``docs/STATIC_ANALYSIS.md`` for the
rationale and an example per code.
"""

from __future__ import annotations
