"""TPC-H schema (the columns the workload queries use).

Dates are integers counting days from 1992-01-01 (the TPC-H epoch); the
7-year date range spans 0..2555.  String-typed columns draw from the
standard TPC-H value domains (brands, segments, ship modes, ...).
"""

from ...relational.schema import Schema, INT, FLOAT, STR

#: days from 1992-01-01 to 1998-12-31
DATE_MIN = 0
DATE_MAX = 2555

EPOCH_YEAR = 1992


def date_of(year, month=1, day=1):
    """Approximate day number of a calendar date (30.44-day months)."""
    return int((year - EPOCH_YEAR) * 365.25 + (month - 1) * 30.44 + (day - 1))


REGION_SCHEMA = Schema.of(("r_regionkey", INT), ("r_name", STR))

NATION_SCHEMA = Schema.of(
    ("n_nationkey", INT), ("n_name", STR), ("n_regionkey", INT)
)

SUPPLIER_SCHEMA = Schema.of(
    ("s_suppkey", INT),
    ("s_nationkey", INT),
    ("s_acctbal", FLOAT),
)

CUSTOMER_SCHEMA = Schema.of(
    ("c_custkey", INT),
    ("c_nationkey", INT),
    ("c_mktsegment", STR),
    ("c_acctbal", FLOAT),
)

PART_SCHEMA = Schema.of(
    ("p_partkey", INT),
    ("p_brand", STR),
    ("p_type", STR),
    ("p_size", INT),
    ("p_container", STR),
    ("p_retailprice", FLOAT),
)

PARTSUPP_SCHEMA = Schema.of(
    ("ps_partkey", INT),
    ("ps_suppkey", INT),
    ("ps_availqty", INT),
    ("ps_supplycost", FLOAT),
)

ORDERS_SCHEMA = Schema.of(
    ("o_orderkey", INT),
    ("o_custkey", INT),
    ("o_orderstatus", STR),
    ("o_totalprice", FLOAT),
    ("o_orderdate", INT),
    ("o_orderpriority", STR),
)

LINEITEM_SCHEMA = Schema.of(
    ("l_orderkey", INT),
    ("l_partkey", INT),
    ("l_suppkey", INT),
    ("l_quantity", FLOAT),
    ("l_extendedprice", FLOAT),
    ("l_discount", FLOAT),
    ("l_tax", FLOAT),
    ("l_returnflag", STR),
    ("l_linestatus", STR),
    ("l_shipdate", INT),
    ("l_commitdate", INT),
    ("l_receiptdate", INT),
    ("l_shipmode", STR),
)

TABLE_SCHEMAS = {
    "region": REGION_SCHEMA,
    "nation": NATION_SCHEMA,
    "supplier": SUPPLIER_SCHEMA,
    "customer": CUSTOMER_SCHEMA,
    "part": PART_SCHEMA,
    "partsupp": PARTSUPP_SCHEMA,
    "orders": ORDERS_SCHEMA,
    "lineitem": LINEITEM_SCHEMA,
}

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

NATIONS = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
)

SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")

BRANDS = tuple("Brand#%d%d" % (m, n) for m in range(1, 6) for n in range(1, 6))

TYPES = tuple(
    "%s %s %s" % (a, b, c)
    for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for b in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for c in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
)

CONTAINERS = tuple(
    "%s %s" % (a, b)
    for a in ("SM", "LG", "MED", "JUMBO", "WRAP")
    for b in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")
)

SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")

ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")

ORDER_STATUSES = ("F", "O", "P")

RETURN_FLAGS = ("R", "A", "N")

LINE_STATUSES = ("O", "F")
