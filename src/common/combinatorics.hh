/**
 * @file
 * Enumeration and counting of the combinatorial objects underlying SMT
 * job schedules.
 *
 * Two families of objects appear in the paper's schedule space
 * (Table 2):
 *
 *  - Full-swap schedules (Z == Y, Y | X): unordered partitions of X
 *    jobs into X/Y groups of exactly Y. Count:
 *    X! / ((Y!)^(X/Y) * (X/Y)!).
 *
 *  - Rotating schedules (Z < Y, or X not divisible by Y): circular
 *    orders of the X jobs up to rotation and reflection; the running
 *    set is a window of Y jobs advanced by Z each timeslice. Count:
 *    (X-1)!/2 for X >= 3.
 */

#ifndef SOS_COMMON_COMBINATORICS_HH
#define SOS_COMMON_COMBINATORICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sos {

class Rng;

/** A grouping of element indices into equal-size groups. */
using Partition = std::vector<std::vector<int>>;

/** n! as a 64-bit value; panics on overflow (n <= 20). */
std::uint64_t factorial(int n);

/** Binomial coefficient C(n, k) as a 64-bit value. */
std::uint64_t binomial(int n, int k);

/**
 * Number of unordered partitions of n distinct elements into groups of
 * exactly k (requires k | n): n! / ((k!)^(n/k) * (n/k)!).
 */
std::uint64_t equalPartitionCount(int n, int k);

/** Number of circular orders of n elements up to rotation+reflection. */
std::uint64_t circularOrderCount(int n);

/**
 * Enumerate all unordered partitions of {0..n-1} into groups of
 * exactly k, each group sorted ascending and groups sorted by their
 * first element (canonical form). Requires k | n and a total count
 * small enough to materialize.
 */
std::vector<Partition> enumerateEqualPartitions(int n, int k);

/**
 * Enumerate all circular orders of {0..n-1} up to rotation and
 * reflection, in canonical form: element 0 first and second element
 * smaller than the last (n >= 3).
 */
std::vector<std::vector<int>> enumerateCircularOrders(int n);

/**
 * Draw a uniformly random partition of {0..n-1} into groups of k, in
 * canonical form.
 */
Partition randomEqualPartition(int n, int k, Rng &rng);

/**
 * Draw a uniformly random circular order of {0..n-1} in canonical
 * form (element 0 first, second element < last element).
 */
std::vector<int> randomCircularOrder(int n, Rng &rng);

/** Canonicalize a partition: sort members, then sort groups. */
Partition canonicalPartition(Partition p);

/**
 * Canonicalize a circular sequence up to rotation and reflection:
 * rotate so the smallest element is first, then reflect if that makes
 * the second element smaller.
 */
std::vector<int> canonicalCircular(std::vector<int> order);

/** Greatest common divisor of two positive integers. */
int gcdInt(int a, int b);

/**
 * a * b with saturation at 2^64-1 (machine schedule spaces multiply a
 * partition count by per-core schedule counts; the product overflows
 * long before anything could enumerate it).
 */
std::uint64_t mulSaturating(std::uint64_t a, std::uint64_t b);

/**
 * Enumerate every digit tuple of a mixed-radix system, least
 * significant digit last ({0,0}, {0,1}, ..., like counting). Used to
 * form the cartesian product of per-core schedule choices. Requires
 * every radix positive and a total count small enough to materialize.
 */
std::vector<std::vector<std::uint64_t>>
enumerateMixedRadix(const std::vector<std::uint64_t> &radices);

/**
 * Relabel local indices {0..group.size()-1} through a sorted group of
 * global identifiers. Order-preserving, so canonical local objects
 * (partitions, circular orders) stay canonical after mapping.
 */
std::vector<int> mapThroughGroup(const std::vector<int> &local,
                                 const std::vector<int> &group);

/** "{a,b,c}" for one group of identifiers. */
std::string groupLabel(const std::vector<int> &group);

/** The groups' labels in order, e.g. "{0,1}{2,3}". */
std::string partitionLabel(const Partition &partition);

} // namespace sos

#endif // SOS_COMMON_COMBINATORICS_HH
