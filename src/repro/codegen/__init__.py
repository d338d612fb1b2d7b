"""repro.codegen — the ``compiled`` backend's kernel lookup.

:mod:`repro.codegen.python_source` holds it: the schedule lowered for the
lockstep executor (:mod:`repro.runtime.lockstep`), built once per schedule,
with its hit/miss counters.
"""
