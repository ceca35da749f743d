#include "combinatorics.hh"

#include <algorithm>
#include <numeric>

#include "logging.hh"
#include "rng.hh"

namespace sos {

std::uint64_t
factorial(int n)
{
    SOS_ASSERT(n >= 0 && n <= 20, "factorial overflow");
    std::uint64_t result = 1;
    for (int i = 2; i <= n; ++i)
        result *= static_cast<std::uint64_t>(i);
    return result;
}

std::uint64_t
binomial(int n, int k)
{
    SOS_ASSERT(n >= 0 && k >= 0);
    if (k > n)
        return 0;
    k = std::min(k, n - k);
    std::uint64_t result = 1;
    for (int i = 1; i <= k; ++i) {
        result = result * static_cast<std::uint64_t>(n - k + i) /
                 static_cast<std::uint64_t>(i);
    }
    return result;
}

std::uint64_t
equalPartitionCount(int n, int k)
{
    SOS_ASSERT(n > 0 && k > 0 && n % k == 0,
               "partition requires k to divide n");
    // Build the count multiplicatively by repeatedly choosing the group
    // containing the smallest remaining element: C(n-1, k-1) choices,
    // then recurse on n-k elements. This avoids 64-bit overflow that a
    // direct factorial quotient would hit for n > 20.
    std::uint64_t count = 1;
    for (int remaining = n; remaining > 0; remaining -= k)
        count *= binomial(remaining - 1, k - 1);
    return count;
}

std::uint64_t
circularOrderCount(int n)
{
    SOS_ASSERT(n >= 3);
    return factorial(n - 1) / 2;
}

namespace {

void
partitionRecurse(std::vector<int> &pool, int k, Partition &current,
                 std::vector<Partition> &out)
{
    if (pool.empty()) {
        out.push_back(current);
        return;
    }
    // The smallest remaining element anchors the next group; choose its
    // k-1 companions. Anchoring guarantees each unordered partition is
    // produced exactly once, already in canonical order.
    const int anchor = pool.front();
    std::vector<int> rest(pool.begin() + 1, pool.end());
    const int m = static_cast<int>(rest.size());

    std::vector<int> pick(static_cast<std::size_t>(k - 1));
    std::iota(pick.begin(), pick.end(), 0);
    while (true) {
        std::vector<int> group{anchor};
        std::vector<bool> used(static_cast<std::size_t>(m), false);
        for (int idx : pick) {
            group.push_back(rest[static_cast<std::size_t>(idx)]);
            used[static_cast<std::size_t>(idx)] = true;
        }
        std::vector<int> next_pool;
        for (int i = 0; i < m; ++i) {
            if (!used[static_cast<std::size_t>(i)])
                next_pool.push_back(rest[static_cast<std::size_t>(i)]);
        }
        current.push_back(group);
        partitionRecurse(next_pool, k, current, out);
        current.pop_back();

        // Advance the combination (lexicographic successor).
        int i = k - 2;
        while (i >= 0 && pick[static_cast<std::size_t>(i)] ==
                             m - (k - 1) + i) {
            --i;
        }
        if (i < 0)
            break;
        ++pick[static_cast<std::size_t>(i)];
        for (int j = i + 1; j < k - 1; ++j) {
            pick[static_cast<std::size_t>(j)] =
                pick[static_cast<std::size_t>(j - 1)] + 1;
        }
    }
}

} // namespace

std::vector<Partition>
enumerateEqualPartitions(int n, int k)
{
    SOS_ASSERT(n > 0 && k > 0 && n % k == 0);
    if (k == 1) {
        Partition singletons;
        for (int i = 0; i < n; ++i)
            singletons.push_back({i});
        return {singletons};
    }
    std::vector<Partition> out;
    std::vector<int> pool(static_cast<std::size_t>(n));
    std::iota(pool.begin(), pool.end(), 0);
    Partition current;
    partitionRecurse(pool, k, current, out);
    return out;
}

std::vector<std::vector<int>>
enumerateCircularOrders(int n)
{
    SOS_ASSERT(n >= 3);
    // Fix element 0 first (rotation), keep orders with second element
    // smaller than the last (reflection); permute the remaining n-1.
    std::vector<int> rest(static_cast<std::size_t>(n - 1));
    std::iota(rest.begin(), rest.end(), 1);
    std::vector<std::vector<int>> out;
    do {
        if (rest.front() < rest.back()) {
            std::vector<int> order{0};
            order.insert(order.end(), rest.begin(), rest.end());
            out.push_back(std::move(order));
        }
    } while (std::next_permutation(rest.begin(), rest.end()));
    return out;
}

Partition
randomEqualPartition(int n, int k, Rng &rng)
{
    SOS_ASSERT(n > 0 && k > 0 && n % k == 0);
    std::vector<int> pool(static_cast<std::size_t>(n));
    std::iota(pool.begin(), pool.end(), 0);
    rng.shuffle(pool);
    Partition p;
    for (int g = 0; g < n / k; ++g) {
        p.emplace_back(pool.begin() + g * k, pool.begin() + (g + 1) * k);
    }
    return canonicalPartition(std::move(p));
}

std::vector<int>
randomCircularOrder(int n, Rng &rng)
{
    SOS_ASSERT(n >= 3);
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    return canonicalCircular(std::move(order));
}

Partition
canonicalPartition(Partition p)
{
    for (auto &group : p)
        std::sort(group.begin(), group.end());
    std::sort(p.begin(), p.end());
    return p;
}

std::vector<int>
canonicalCircular(std::vector<int> order)
{
    SOS_ASSERT(order.size() >= 3);
    const auto smallest = std::min_element(order.begin(), order.end());
    std::rotate(order.begin(), smallest, order.end());
    if (order[1] > order.back())
        std::reverse(order.begin() + 1, order.end());
    return order;
}

std::uint64_t
mulSaturating(std::uint64_t a, std::uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    if (a > ~std::uint64_t{0} / b)
        return ~std::uint64_t{0};
    return a * b;
}

std::vector<std::vector<std::uint64_t>>
enumerateMixedRadix(const std::vector<std::uint64_t> &radices)
{
    std::uint64_t total = 1;
    for (const std::uint64_t r : radices) {
        SOS_ASSERT(r > 0, "mixed-radix digit needs a positive radix");
        total = mulSaturating(total, r);
    }
    SOS_ASSERT(total <= 1u << 20, "mixed-radix space too large");

    std::vector<std::vector<std::uint64_t>> out;
    out.reserve(static_cast<std::size_t>(total));
    std::vector<std::uint64_t> digits(radices.size(), 0);
    for (std::uint64_t i = 0; i < total; ++i) {
        out.push_back(digits);
        for (std::size_t d = digits.size(); d-- > 0;) {
            if (++digits[d] < radices[d])
                break;
            digits[d] = 0;
        }
    }
    return out;
}

std::vector<int>
mapThroughGroup(const std::vector<int> &local,
                const std::vector<int> &group)
{
    std::vector<int> out;
    out.reserve(local.size());
    for (const int i : local) {
        SOS_ASSERT(i >= 0 && i < static_cast<int>(group.size()),
                   "local index outside the group");
        out.push_back(group[static_cast<std::size_t>(i)]);
    }
    return out;
}

int
gcdInt(int a, int b)
{
    SOS_ASSERT(a > 0 && b > 0);
    while (b != 0) {
        const int t = a % b;
        a = b;
        b = t;
    }
    return a;
}

std::string
groupLabel(const std::vector<int> &group)
{
    std::string out = "{";
    for (std::size_t i = 0; i < group.size(); ++i) {
        if (i > 0)
            out += ',';
        out += std::to_string(group[i]);
    }
    return out + '}';
}

std::string
partitionLabel(const Partition &partition)
{
    std::string out;
    for (const std::vector<int> &group : partition)
        out += groupLabel(group);
    return out;
}

} // namespace sos
