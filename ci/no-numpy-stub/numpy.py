"""CI shim that makes ``import numpy`` fail even when numpy is installed.

Prepending ``ci/no-numpy-stub`` to ``PYTHONPATH`` shadows the real
package with this module, which refuses to import. The no-numpy CI leg
uses it to prove the package runs without numpy: the engines and the
OPT surrogates work on plain-list columns, and every feature that
genuinely needs numpy (adversarial trace generation, the Random policy)
must fail with its explicit ``ConfigError`` instead of an accidental
crash.
"""

raise ImportError(
    "numpy deliberately unavailable (ci/no-numpy-stub is shadowing it)"
)
