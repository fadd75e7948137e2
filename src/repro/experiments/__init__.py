"""Figure renderers: one module per paper figure, plus ablations.

Each renders a scenario pack's results; ``runner.FIGURES`` maps every
figure to its pack and runs them all as one deduplicated sweep.

Regenerate from the command line (``repro`` imports this package only
when ``figures`` runs)::

    repro figures all --fast
    python -m repro.store.cli figures fig3
"""
