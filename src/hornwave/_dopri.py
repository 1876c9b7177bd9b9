"""The Dormand-Prince 5(4) embedded pair (Dormand & Prince, J. Comput.
Appl. Math. 6, 1980), the one tableau both marches read.

``C`` holds the stage nodes and ``A`` the strictly lower-triangular stage
matrix.  Row 6 of ``A`` is the fifth-order weights, so stage 6 is taken
at the new point and starts the next step (first same as last).  ``E``
holds the error weights, fifth minus embedded fourth order, over all
seven stages.
"""

import numpy as np

C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0]])
E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
              22 / 525, -1 / 40])
