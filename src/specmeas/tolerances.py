"""Central numerical tolerances.

All equality checks in the library are relative: a residual r against a
reference of size s passes when r <= tol * (1 + s).  That keeps every check
scale-invariant (A and 1e6*A behave identically).
"""

TAU_HERM = 1e-10    # hermiticity residual, Frobenius, relative
TAU_PROJ = 1e-8     # idempotency / orthogonality of projections
TAU_RECON = 1e-8    # reconstruction residuals (spectral sums, products)
TAU_DOC = 1e-7      # invariant residual of a measure read from a document
DELTA_CLUSTER = 1e-7  # eigenvalue clustering gap, relative to 1 + op norm
TAU_ALG = 1e-8      # algebra membership residuals
TAU_EXT = 1e-7      # linear-extension well-definedness disagreement
TAU_RANK = 1e-10    # absolute singular-value cutoff for rank and null spaces
TAU_MATCH = 1e-6    # joint-value tuples closer than this name the same atom
TAU_EXACT = 1e-12   # two routes that form the same finite sums must agree
TAU_NORM_SLACK = 1e-9  # allowed excess of a witnessed norm bound over one
RESIDUAL_FLOOR = 1e-12  # residuals at or below this are round-off
MIN_DECAY_RATE = 0.8   # least fitted log-log decay rate of condition (3)
CONDITION3_CONSTANT = 10.0  # c in condition (3)'s bound c*(1+dim)/ell_max
CELL_EDGE_SLACK = 1e-12  # meshes past a cell's right edge that stay in it
LIMIT_BOUND_SLACK = 1e-12  # relative slack on S_l's 1/ell error bound
VERDICT_TOL = 0.5  # a verdict row, with no residual, reads 0 (pass) or 1 (fail)
NORM_FLOOR = 1e-300  # a generator at or below this Frobenius norm is zero
FAULT_MAGNITUDE = 1e-3  # the size of an injected fault
