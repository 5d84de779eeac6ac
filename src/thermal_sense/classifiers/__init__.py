from .kernels import KernelSpec, kernel_matrix
from .knn import KnnModel, predict_knn_batch, predict_knn_grid, train_knn
from .nn import NnModel, TrainingParams, nn_gradient, predict_nn_batch, train_nn
from .svm import SvmModel, predict_svm_batch, train_svm

__all__ = [
    "KernelSpec",
    "kernel_matrix",
    "KnnModel",
    "train_knn",
    "predict_knn_batch",
    "predict_knn_grid",
    "SvmModel",
    "train_svm",
    "predict_svm_batch",
    "NnModel",
    "TrainingParams",
    "train_nn",
    "predict_nn_batch",
    "nn_gradient",
]
