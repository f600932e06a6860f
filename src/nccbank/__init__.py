"""Learned NCC filter banks for infrared small-target detection.

The package is organized as a plain numpy library:

* ``patchmath``  -- STD/MAD patch normalization, valid-mode correlation,
  NCC scores, and the analytic backward pass of the normalization.
* ``nccnet``     -- the small two-layer NCC network (filters + ReLU +
  decision weights), hand-derived gradients, and SGD-with-momentum training.
* ``filterbank`` -- engineered detectors: Gaussian and center-surround
  ("hat") filters, cropping, Q-format quantization, a bit-exact integer
  MAD-NCC scorer, and per-frame operation counts of the dense scorers.
* ``irdatagen``  -- synthetic infrared scene and patch-dataset generation,
  augmentation, negative subsampling, and the binary dataset format.
* ``bench``      -- sliding-window detection, detection/truth matching,
  ROC curves, and the benchmark harness.
* ``cli``        -- the ``nccbank`` command-line interface.
"""

__version__ = "0.1.0"
