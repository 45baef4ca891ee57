"""Mining and classifying issue-referencing code comments.

The package traces Java comments that cite issue-tracker tickets
through a repository's git history, tells apart comments that put work
on hold ("remove this once PROJ-123 is fixed") from plain
cross-references, and flags on-hold comments whose blocking issue has
since been resolved, so they are ready to be removed.

The library API is the submodules, for example
``from onhold.learn import train``.
"""
