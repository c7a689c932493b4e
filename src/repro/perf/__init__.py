"""Performance subsystem: the ``repro bench`` harness and the CI regression
gate (:mod:`repro.perf.bench`, :mod:`repro.perf.compare`,
:mod:`repro.perf.report`)."""
