"""Hand-built datasets from records.

The package builds datasets from columns only; ``dataset`` turns
``SubjectRecord``s of ``Episode``s into those columns and leaves every check
to the ``CountingProcessDataset`` constructor. A baseline covariate missing
from a record becomes NaN on each of its subject's rows, as does a
time-dependent value of None; names outside the schema are dropped.
"""

import math

import numpy as np

from predictimands.data import CountingProcessDataset, CovariateSchema, DesignFlavor


def dataset(subjects, schema=None, design=DesignFlavor.CONTINUES_AFTER_TREATMENT):
    schema = CovariateSchema() if schema is None else schema
    subjects = tuple(subjects)
    rows = [(sub, ep) for sub in subjects for ep in sub.episodes]
    columns = {name: [sub.baseline.get(name, math.nan) for sub, _ in rows]
               for name in schema.baseline}
    columns.update({name: [math.nan if ep.tv.get(name) is None else ep.tv[name]
                           for _, ep in rows] for name in schema.time_varying})
    return CountingProcessDataset(
        schema, design, [sub.subject_id for sub in subjects],
        np.cumsum([0] + [len(sub.episodes) for sub in subjects]),
        *np.array([(ep.tstart, ep.tstop, ep.status, ep.treated)
                   for _, ep in rows], float).reshape(-1, 4).T, columns)
