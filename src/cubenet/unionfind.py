"""Union-find over dense integer ids, with component extraction."""


class UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def max_component_size(self) -> int:
        return max(self.size[i] for i in range(len(self.parent)) if self.find(i) == i)

    def components(self) -> list[list[int]]:
        groups: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())
