// graphblas.hpp — umbrella header for the grb:: GraphBLAS-style substrate.
//
// Include this to get the full public API:
//   - grb::Vector<T>, grb::Matrix<T>         (sparse containers)
//   - operators / monoids / semirings        (ops.hpp, monoid.hpp, semiring.hpp)
//   - grb::Descriptor, grb::NoMask, grb::NoAccumulate
//   - grb::Context / grb::default_context()  (reusable operation workspaces)
//   - operations: the ones Fig. 2 calls (apply on vectors and matrices,
//                 ewise_add, vxm), the select ablation adds (vector select,
//                 masked scalar assign), and the C API adds (ewise_mult,
//                 mxv, vector reduce)
#pragma once

#include "graphblas/context.hpp"
#include "graphblas/descriptor.hpp"
#include "graphblas/mask.hpp"
#include "graphblas/matrix.hpp"
#include "graphblas/monoid.hpp"
#include "graphblas/operations/apply.hpp"
#include "graphblas/operations/assign.hpp"
#include "graphblas/operations/ewise.hpp"
#include "graphblas/operations/mxv.hpp"
#include "graphblas/operations/reduce.hpp"
#include "graphblas/operations/select.hpp"
#include "graphblas/ops.hpp"
#include "graphblas/semiring.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"
