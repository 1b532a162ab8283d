"""Independent oracle for the eigenvalue operator -d lap + u (Neumann).

Assembled as the Kronecker sum of two Neumann path Laplacians plus the
effort on the interior nodes, sharing no code with the five-point stencil
of the step solver.
"""

import numpy as np
from scipy import sparse


def neumann_operator(effort, d):
    """Sparse -d lap + u on the interior nodes of the effort field; call
    toarray() for the dense matrix."""
    grid = effort.grid
    n1 = grid.N - 1
    ends = np.full(n1, 2.0)
    ends[[0, -1]] = 1.0
    path = sparse.diags([-np.ones(n1 - 1), ends, -np.ones(n1 - 1)], [-1, 0, 1])
    eye = sparse.identity(n1)
    lap = sparse.kron(path, eye) + sparse.kron(eye, path)
    interior = effort.values[1:-1, 1:-1].ravel()
    return (d / grid.h**2 * lap + sparse.diags(interior)).tocsc()
