# cython: language_level=3
"""Compiled twins of the pure-Python polynomial convolution kernels.

Same contracts as sparseproj._kernels_py; coefficients stay generic Python
objects (mpq or Fraction), the win is the loop and tuple machinery.
``series_mul`` has no twin here: the pure-Python one clears denominators and
convolves ints, which is faster than this loop over Rat products.
"""

from cpython.dict cimport PyDict_GetItem, PyDict_SetItem, PyDict_DelItem
from cpython.tuple cimport PyTuple_GET_SIZE, PyTuple_GET_ITEM, PyTuple_New, PyTuple_SET_ITEM
from cpython.ref cimport Py_INCREF

IMPLEMENTATION = "cython"


cdef inline tuple _tup_add(tuple a, tuple b):
    cdef Py_ssize_t i, n = PyTuple_GET_SIZE(a)
    cdef tuple out = PyTuple_New(n)
    cdef object item
    for i in range(n):
        item = (<object>PyTuple_GET_ITEM(a, i)) + (<object>PyTuple_GET_ITEM(b, i))
        Py_INCREF(item)
        PyTuple_SET_ITEM(out, i, item)
    return out


cdef inline void _accumulate(dict out, tuple e, object contrib) except *:
    cdef void* hit = PyDict_GetItem(out, e)
    cdef object acc
    if hit == NULL:
        PyDict_SetItem(out, e, contrib)
    else:
        acc = (<object>hit) + contrib
        if acc:
            PyDict_SetItem(out, e, acc)
        else:
            PyDict_DelItem(out, e)


def poly_mul(dict a, dict b):
    """Sparse product of two exponent-dict polynomials."""
    cdef dict out = {}
    cdef tuple ea, eb
    cdef object ca, cb
    if not a or not b:
        return out
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            _accumulate(out, _tup_add(ea, eb), ca * cb)
    return out


def poly_addmul(dict acc, coeff, dict b):
    """In-place ``acc += coeff * b``; removes cancelled terms."""
    cdef tuple e
    cdef object cb
    if not coeff or not b:
        return
    for e, cb in b.items():
        _accumulate(acc, e, coeff * cb)


cdef inline long _tup_degree(tuple e):
    cdef Py_ssize_t i, n = PyTuple_GET_SIZE(e)
    cdef long total = 0
    for i in range(n):
        total += <long>(<object>PyTuple_GET_ITEM(e, i))
    return total


def poly_mul_trunc(dict a, dict b, long cap):
    """Sparse product keeping only terms of total degree <= cap."""
    cdef dict out = {}
    cdef tuple ea, eb
    cdef object ca, cb
    cdef long da
    if not a or not b:
        return out
    for ea, ca in a.items():
        da = _tup_degree(ea)
        for eb, cb in b.items():
            if da + _tup_degree(eb) > cap:
                continue
            _accumulate(out, _tup_add(ea, eb), ca * cb)
    return out

